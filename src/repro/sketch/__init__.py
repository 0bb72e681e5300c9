"""Frequency-counting substrate: the Count-Min Sketch."""

from repro.sketch.countmin import CountMinSketch

__all__ = ["CountMinSketch"]
