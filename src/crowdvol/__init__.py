"""Ground-truth generation and evaluation toolkit for crowd volume estimation."""

__version__ = "0.6.0"
