"""Exception types shared across the library."""


class Hecke2Error(Exception):
    """Base class for all library-specific errors."""


class PrecisionTooLow(Hecke2Error, ValueError):
    """A coefficient beyond the known precision was requested or required."""


class NotAPolynomial(Hecke2Error, ValueError):
    """A series does not match any Delta-polynomial within the degree bound."""


class ZeroPolynomial(Hecke2Error, ValueError):
    """The operation is undefined for the zero polynomial."""


class MixedParity(Hecke2Error, ValueError):
    """The polynomial mixes even and odd exponents."""


class ParityMismatch(Hecke2Error, ValueError):
    """The domination order only compares integers of equal parity."""


class NotOddForm(Hecke2Error, ValueError):
    """The form has an even exponent, so it lies outside the odd-power span."""


class NotPrime(Hecke2Error, ValueError):
    """An odd prime was required."""


class BadResidue(Hecke2Error, ValueError):
    """The integer is in the wrong residue class for this formula."""


class BadK(Hecke2Error, ValueError):
    """No closed form is available for this exponent."""


class RankDeficient(Hecke2Error, RuntimeError):
    """The coefficient window did not pin down a unique relation."""


class SingularSystem(Hecke2Error, RuntimeError):
    """The power-sum identities do not pin down one relation.

    They leave a coefficient bit underdetermined, are inconsistent, or have
    an identity that does not close on the solution.
    """


class WitnessFailed(Hecke2Error, RuntimeError):
    """An annihilation witness did not reduce the form to Delta."""


class CacheFormatError(Hecke2Error, ValueError):
    """A relation cache file is malformed or fails its checksum."""
