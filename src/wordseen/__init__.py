"""Window-constrained visibility of binary words in coin-flip sequences."""

__version__ = "0.1.0"
