"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine failures."""


class RingMismatchError(EngineError):
    """Operands live in different polynomial rings."""


class PolynomialParseError(EngineError):
    """Malformed polynomial expression."""


class ImproperIntersectionError(EngineError):
    """A hypersurface vanishes identically on a cycle component."""

    def __init__(self, component, hypersurface, message=None):
        self.component = component
        self.hypersurface = hypersurface
        super().__init__(
            message
            or "improper intersection: %s vanishes on component %s"
            % (hypersurface, component)
        )


class GenericityError(EngineError):
    """Coordinates or slices failed a genericity requirement.

    `stage` records where: ("vogel", j, component), ("slice", j, component),
    ("stalk", None, component) or ("oracle", i, component).
    """

    def __init__(self, message, stage=None):
        self.stage = stage
        super().__init__(message)


class InputError(EngineError):
    """Invalid configuration or arguments."""


class InternalError(EngineError):
    """An internal invariant was violated; indicates a bug."""
