"""Shared exception types, and the number format of guard refusals."""


class GuardExceeded(RuntimeError):
    """A size guard tripped; carries the limiting parameter in its message."""


class InternalCheckError(AssertionError):
    """An identity that is a proved theorem failed; indicates a bug."""


def power_text(base: int, exponent: int, factor: int = 1) -> str:
    """factor * base^exponent for a guard refusal: in decimal up to 80
    digits, else as ``base^exponent`` times the factor, so a refusal stays
    one short line (q^(2 delta) at q = 65521, delta = 256 has 2467 digits)."""
    value = factor * base ** exponent
    if value < 10 ** 80:
        return str(value)
    return f"{base}^{exponent}" if factor == 1 else f"{factor} * {base}^{exponent}"
