"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all engine failures."""


class DegreeOutOfRange(EngineError):
    pass


class IncompatibleFiltration(EngineError):
    """The differential does not preserve the declared filtration."""


class ConstructionInconsistent(EngineError):
    """d*d != 0 for a freshly assembled complex; the input data is inconsistent."""


class NotEquivariant(EngineError):
    pass


class NotWellDefined(EngineError):
    """An induced operator failed to preserve cocycles or coboundaries."""


class ExactnessFailure(EngineError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class MismatchAt(EngineError):
    def __init__(self, degree, witness=None):
        super().__init__(f"hom-transfer differential disagrees at degree {degree}: {witness}")
        self.degree = degree
        self.witness = witness


class FiltrationNotPreserved(EngineError):
    pass


class DimMismatch(EngineError):
    def __init__(self, where, got, expected):
        super().__init__(f"dimension mismatch at {where}: got {got}, expected {expected}")
        self.where = where
        self.got = got
        self.expected = expected


class ParseError(EngineError):
    pass


class ShapeError(ParseError):
    pass
