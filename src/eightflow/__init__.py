"""Curve shortening flow of figure-eight curves, Legendrian lifts in contact
R^3, length-gradient flow variants, and comparison-solution monitors."""

__version__ = "0.1.0"
