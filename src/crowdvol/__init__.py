"""Ground-truth generation and evaluation toolkit for crowd volume estimation."""

__version__ = "0.2.0"
