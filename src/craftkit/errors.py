"""Exception hierarchy shared across the pipeline stages."""


class CraftError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CraftError):
    pass


class JsonSyntaxError(ParseError):
    pass


class DuplicateId(CraftError):
    pass


class UnknownObject(CraftError):
    def __init__(self, object_id):
        super().__init__(f"unknown object id: {object_id!r}")


class PlacementError(CraftError):
    """A plan that cannot be placed; ``parts`` names the parts at fault."""

    def __init__(self, message, *parts):
        super().__init__(message)
        self.parts = parts


class Unplaceable(PlacementError):
    def __init__(self, part):
        super().__init__(f"part {part!r} has no connection to any placed part",
                         part)


class InconsistentConnection(PlacementError):
    def __init__(self, part, to_part, detail):
        super().__init__(f"connection {part!r} -> {to_part!r} is inconsistent "
                         f"with the part's pose: {detail}", part, to_part)


class HoleNotCarvedYet(PlacementError):
    def __init__(self, part, to_part, modification):
        super().__init__(
            f"part {part!r} inserts into {modification!r} of {to_part!r}, "
            "which is not placed yet", part, to_part)


class HoleExceedsOwner(PlacementError):
    def __init__(self, part, modification):
        super().__init__(
            f"hole {modification!r} exits the bounds of part {part!r}", part)


class NumericalDivergence(CraftError):
    """A body's speed or spin left the solver's range, or became NaN."""

    def __init__(self, body, what, time):
        super().__init__(f"body {body!r} {what} at t={time:.4g} s")
        self.body = body
        self.time = time


class EmptyMesh(CraftError):
    pass


class MalformedObj(CraftError):
    """An OBJ file that does not say what a mesh needs: a bad line (its
    number ``line``), or, with ``line`` None, no vertex or no face."""

    def __init__(self, path, line, detail):
        where = path if line is None else f"{path}, line {line}"
        super().__init__(f"{where}: {detail}")


class DegenerateExtent(CraftError):
    pass


class ClientError(CraftError):
    """Transport or auth failure talking to the language-model backend.

    ``retryable`` is False when asking again cannot succeed: a scripted
    client out of responses, an HTTP 4xx answer, or a missing dependency.
    """

    def __init__(self, message, retryable=True):
        super().__init__(message)
        self.retryable = retryable
