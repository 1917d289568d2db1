"""Numerical laboratory for wavevector-range ensemble models of measurement."""

__version__ = "0.1.0"

# the Monte Carlo seed of `bomb`; held here, so building the CLI parser loads no scenario module
DEFAULT_SEED = 12345
