"""Exact crystal components of doubled wedge spaces and their verification."""

from .cartan import AffineType, cartan_data, from_label
from .crystal import component, e_tilde, f_tilde

__all__ = [
    "AffineType",
    "cartan_data",
    "component",
    "e_tilde",
    "f_tilde",
    "from_label",
]

__version__ = "0.1.0"
