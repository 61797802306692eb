"""Grammar-driven random OpenMP test generation and differential testing."""

__version__ = "0.1.0"
