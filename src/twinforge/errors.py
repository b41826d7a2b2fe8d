"""Exception hierarchy. One class per contract violation so callers can
catch precisely; everything derives from TwinForgeError."""


def shown(value, text=repr) -> str:
    """text(value), repr or str, for an error text; a value whose text Python
    refuses with ValueError, as an int past its int-to-text limit, is named:
    such an int by its bit length, a list or tuple item by item, else by type.
    A list or tuple inside itself is [...] or (...), as repr shows it."""
    return _shown(value, text, ())


def _shown(value, text, outer: tuple) -> str:
    """shown for a value inside the lists and tuples outer."""
    try:
        return text(value)
    except ValueError:
        if isinstance(value, int):
            return f"an int of {value.bit_length()} bits"
        if type(value) not in (list, tuple):
            return f"a {type(value).__name__} too long to print"
        ends = "[]" if type(value) is list else "()"
        if any(value is o for o in outer):
            return f"{ends[0]}...{ends[1]}"
        items = ", ".join(_shown(item, repr, (*outer, value)) for item in value)
        return f"{ends[0]}{items}{',' * (ends == '()' and len(value) == 1)}{ends[1]}"


class TwinForgeError(Exception):
    pass


# -- twin runtime ------------------------------------------------------------

class InvalidAssetId(TwinForgeError):
    pass


class DuplicateAssetId(TwinForgeError):
    pass


class InvalidTransition(TwinForgeError):
    def __init__(self, phase, event):
        super().__init__(f"no transition from {phase.name} on {event.name}")
        self.phase = phase
        self.event = event


class TwinNotBound(TwinForgeError):
    pass


# -- wire format / simulator -------------------------------------------------

class MalformedLine(TwinForgeError):
    pass


class InvalidSpec(TwinForgeError, ValueError):
    """A scenario or a seed that fails its checks. Also a ValueError, the
    error of a value out of its domain."""


# -- archive -----------------------------------------------------------------

class UnknownAsset(TwinForgeError):
    pass


class OverlappingSegment(TwinForgeError):
    pass


class UnknownReplicaVersion(TwinForgeError):
    pass


# -- readiness ---------------------------------------------------------------

class EmptySeries(TwinForgeError):
    pass


class AllMissing(TwinForgeError):
    pass


class WindowTooLarge(TwinForgeError):
    pass


class AxisLengthMismatch(TwinForgeError):
    pass


# -- analytics ---------------------------------------------------------------

class FeatureOutOfRange(TwinForgeError, ValueError):
    """A point the analytics cannot square, not finite or at least 2**480 in
    magnitude. Also a ValueError, the error of a value out of its domain."""


class SeriesTooShort(TwinForgeError):
    pass


class EmptyInput(TwinForgeError):
    pass


class KExceedsN(TwinForgeError):
    pass


class TooFewPoints(TwinForgeError):
    pass


class LengthMismatch(TwinForgeError):
    pass


# -- orchestrator ------------------------------------------------------------

class NoResults(TwinForgeError):
    pass


class MixedVersions(TwinForgeError):
    pass


class NoData(TwinForgeError):
    pass
