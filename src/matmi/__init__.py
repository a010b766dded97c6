"""Second-step MAT-MI toolbox: simulate the induced eddy-current field and its
acoustic-source data for a planar conductivity, and reconstruct the
conductivity from that data by a fixed-point iteration of field and
transport solves."""

__version__ = "0.1.0"
