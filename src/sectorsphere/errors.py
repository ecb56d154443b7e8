"""Exception types shared across the storage and compute layers.

Errors that cross the wire are mapped to/from short string codes so a
remote failure re-raises as the same exception class on the caller side.
"""


class SectorError(Exception):
    code = "internal"


class ConfigError(SectorError):
    code = "config"


class TransportError(SectorError):
    code = "transport"


class RpcTimeoutError(TransportError):
    code = "timeout"


class FrameError(TransportError):
    code = "frame"


class AccessDeniedError(SectorError):
    code = "access-denied"


class NotFoundError(SectorError):
    code = "not-found"


class StaleError(NotFoundError):
    """The holder's copy is not the version the caller's header describes."""
    code = "stale"


class IntegrityError(SectorError):
    code = "integrity"


class RangeError(SectorError):
    code = "range"


class RoutingError(SectorError):
    code = "routing"


class JobError(SectorError):
    code = "job"

    def __init__(self, message, failed_segments=()):
        super().__init__(message)
        self.failed_segments = list(failed_segments)


_BY_CODE = {
    cls.code: cls
    for cls in (
        SectorError,
        ConfigError,
        TransportError,
        RpcTimeoutError,
        FrameError,
        AccessDeniedError,
        NotFoundError,
        StaleError,
        IntegrityError,
        RangeError,
        RoutingError,
        JobError,
    )
}


def error_from_code(code: str, message: str) -> SectorError:
    return _BY_CODE.get(code, SectorError)(message)
