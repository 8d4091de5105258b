"""Exception types shared across the package."""


class ShiftflexError(Exception):
    """Base class for all library errors."""


class CapacityError(ShiftflexError):
    """An enumeration would exceed the configured word budget."""

    def __init__(self, requested, budget, what="words"):
        self.requested = requested
        self.budget = budget
        super().__init__(
            f"enumeration of {requested} {what} exceeds budget {budget}"
        )


class ReducibleShiftError(ShiftflexError):
    """Operation requires an irreducible (strongly connected) shift."""


class UnreachableStateError(ShiftflexError):
    """No admissible path between the requested states."""


class ConvergenceError(ShiftflexError):
    """Eigenvector iteration failed to reach tolerance within the cap."""


class WordTooShortError(ShiftflexError):
    """Word shorter than the requested window depth."""


class InsufficientWordLengthError(ShiftflexError):
    """The word length n cannot produce the separated set the stage needs.

    Signals the caller to change n; `least_word_length` names the least
    admissible n when the refusal can compute one.
    """

    def __init__(self, msg, deviation=None, least_word_length=None):
        self.deviation = deviation
        self.least_word_length = least_word_length
        super().__init__(msg)


class NonUniformLengthError(ShiftflexError):
    """Renewal presentation requires all code words to share one length."""


class NoLowOverlapWordError(ShiftflexError):
    """No admissible word of the requested length has a small enough border."""


class InfeasibleTargetError(ShiftflexError):
    """Target entropy c is not below the normalized base entropy h*."""


class SubsystemSearchError(ShiftflexError):
    """No disjoint subsystem pair satisfied the entropy/measure constraints."""

    def __init__(self, msg, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(msg)


class StructureDepthError(ShiftflexError):
    """A window deeper than the depth single ambient code words decide."""


class UnsupportedAmbientError(ShiftflexError):
    """The previous stage cannot serve as the ambient of a further stage."""


class StageVerificationError(ShiftflexError):
    """A built stage failed one of its verified inequalities."""

    def __init__(self, msg, stage=None, report=None):
        self.stage = stage
        self.report = report
        super().__init__(msg)


class ConfigError(ShiftflexError):
    """Run configuration could not be parsed; carries a line anchor."""

    def __init__(self, msg, line=None, field=None):
        self.line = line
        self.field = field
        anchor = ""
        if line is not None:
            anchor += f"line {line}: "
        if field is not None:
            anchor += f"field '{field}': "
        super().__init__(anchor + msg)
