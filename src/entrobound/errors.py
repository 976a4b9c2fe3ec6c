"""Structured exception types shared across the package."""


class EntroboundError(Exception):
    """Base class for every structured error raised by this package."""


class DimensionMismatchError(EntroboundError):
    def __init__(self, expected, got, what="vector"):
        # got is a length or a shape; a vector's shape reads as its length
        if isinstance(got, tuple) and len(got) == 1:
            got = got[0]
        if isinstance(got, tuple):
            super().__init__(f"{what} has shape {got}, expected length {expected}")
        else:
            super().__init__(f"{what} has length {got}, expected {expected}")
        self.expected = expected
        self.got = got


class ZeroVectorError(EntroboundError):
    pass


class EmptyDictionaryError(EntroboundError):
    pass


class AtomNormalizationError(EntroboundError):
    def __init__(self, index, norm):
        super().__init__(
            f"atom {index} has norm {norm!r}, expected 1 within 1e-10")
        self.index = index
        self.norm = norm


class SpanMembershipError(EntroboundError):
    def __init__(self, residual, tol):
        super().__init__(
            "vector lies outside the dictionary span: "
            f"relative residual {residual:.3e} exceeds {tol:.1e}")
        self.residual = residual
        self.tol = tol


class BudgetExceededError(EntroboundError):
    pass


class NonConvergenceError(EntroboundError):
    def __init__(self, grad_norm, iterations, tol, cause=None):
        super().__init__(
            f"inner solver stopped after {iterations} iterations with "
            f"residual measure {grad_norm:.3e} (target {tol:.1e})"
            + (f": {cause}" if cause else ""))
        self.grad_norm = grad_norm
        self.iterations = iterations
        self.tol = tol


class GramDefectError(EntroboundError):
    def __init__(self, defect):
        super().__init__(
            f"basis is not orthonormal under the measure: Gram defect {defect:.3e}")
        self.defect = defect


class PropertyViolationError(EntroboundError):
    """A property that a run checks on its own result does not hold."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NormBoundError(PropertyViolationError):
    def __init__(self, index, value, bound):
        super().__init__(
            f"representer {index} has dual norm {value:.6g}, "
            f"above the certified bound {bound:.6g}")
        self.index = index
        self.value = value
        self.bound = bound


class CertificateError(PropertyViolationError):
    pass


class EmptySampleError(EntroboundError):
    pass


class QuantizationBudgetError(PropertyViolationError):
    pass


class ConfigValidationError(EntroboundError):
    def __init__(self, problems):
        super().__init__("invalid configuration: " + "; ".join(problems))
        self.problems = list(problems)

