"""cordalg: the cord algebra of knots via Morse theory on linear cords."""

from .ring import AlgebraElement, Presentation, framing_transform, parse, serialize
from .tolerances import DEFAULT_TOL

__all__ = [
    "AlgebraElement",
    "Presentation",
    "framing_transform",
    "parse",
    "serialize",
    "DEFAULT_TOL",
]

__version__ = "0.1.0"
