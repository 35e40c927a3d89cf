"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific type that applies rather than bare ValueError.  Their
messages name numbers through shown(), so that no message fails to print.
"""


def shown(value) -> str:
    """str(value), or for an int or Fraction with more digits than the
    interpreter converts to str (4300 by default), its size in bits.

    >>> shown(-12)
    '-12'
    >>> shown(10 ** 5000)
    'a number of 16610 bits'
    """
    try:
        return str(value)
    except ValueError:
        bits = max(abs(value.numerator), value.denominator).bit_length()
        return f"a {'negative ' if value < 0 else ''}number of {bits} bits"


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class CapacityError(RuntimeError):
    """A request is well formed but exceeds a configured resource ceiling."""


class CertificationError(RuntimeError):
    """A predicted multiplicity disagrees with an exhaustive enumeration.

    Carries enough context to report the disagreement without re-running
    the enumeration.
    """

    def __init__(self, message: str, predicted: int, observed: int,
                 target: int, solutions: tuple[int, ...] = ()):
        super().__init__(message)
        self.predicted = predicted
        self.observed = observed
        self.target = target
        self.solutions = solutions
