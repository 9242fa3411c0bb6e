"""Exception types shared across the toolkit."""


class VlpError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(VlpError):
    """Bad or missing configuration value. Carries the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


class BehindCamera(VlpError):
    """Point lies on or behind the camera plane (z_cam <= 0)."""


class MalformedModel(VlpError, ValueError):
    """Model file is not valid JSON, carries another format tag, names an
    unknown kind or lacks a field."""


class BadFeatures(VlpError, ValueError):
    """Feature input to a position model is not a finite (N, 8) matrix."""


class MalformedIes(VlpError):
    """IES photometric file could not be parsed."""


class EmptyQuad(VlpError):
    """Projected quad covers no pixel on the sensor."""


class ProfileTooShort(VlpError):
    """Row profile does not cover one full repetition of the code."""


class NoTransitions(VlpError):
    """Row profile has no usable stripe structure."""


class NoMatch(VlpError):
    """Decoded bits match no record in the LED database."""


class AmbiguousMatch(VlpError):
    """Two database records are cyclic rotations of each other."""


class VisionFailure(VlpError):
    """Feature extraction failed on a frame. Base of the per-stage errors,
    so callers can drop a frame on any of them with one except clause."""


class EmptyMask(VisionFailure):
    """Binary mask contains no set pixel."""


class TooFewCorners(VisionFailure):
    """Corner detector found fewer candidates than requested."""


class SaturatedFrame(VisionFailure):
    """The bright blob spans the sensor's full height or width, so its
    outline is the frame's edge, not the panel's."""


class DegenerateQuad(VisionFailure):
    """Corner set contains duplicate or collinear points."""


class InsufficientRows(VlpError):
    """A location has fewer rows than the requested test split."""


class EmptyTestSet(VlpError):
    """Evaluation was asked to run on an empty test set."""
