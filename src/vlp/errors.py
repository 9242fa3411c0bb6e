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
    unknown kind, lacks or mistypes a field, or holds a tree that predict
    cannot walk."""


class MalformedFrame(VlpError, ValueError):
    """Frame file is not an 8-bit binary PGM, its raster is empty or cut
    short, or its capture meta is invalid."""


class MalformedCsv(VlpError, ValueError):
    """CSV file has a bad cell, a row of the wrong width or no data rows."""


class BadFeatures(VlpError, ValueError):
    """Feature input to a position model is not a finite (N, 8) matrix."""


class EmptyQuad(VlpError):
    """Projected quad covers no pixel center on the sensor, or the rows it
    covers there are not contiguous."""


class ProfileTooShort(VlpError):
    """Row profile does not cover one full repetition of the code, or
    holds fewer than 16 whole half-bit cells."""


class NoTransitions(VlpError):
    """Row profile has no usable stripe structure, or no level change
    between its half-bit cells."""


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
    """The blob's outline does not give four corners: its hull has fewer
    than four vertices, a quad side is too short to fit or holds fewer than
    two points, or two adjacent sides are parallel."""


class SaturatedFrame(VisionFailure):
    """The bright blob spans the sensor's full height or width, so its
    outline is the frame's edge, not the panel's."""


class DegenerateQuad(VisionFailure):
    """Corner set contains duplicate or collinear points, or forms a non-convex quad."""


class InsufficientRows(VlpError):
    """A location has fewer rows than the requested test split."""


class EmptyTestSet(VlpError):
    """Evaluation was asked to run on an empty test set."""
