"""Numerical laboratory for wavevector-range ensemble models of measurement."""

__version__ = "0.1.0"
