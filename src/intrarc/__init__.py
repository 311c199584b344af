"""Two-pass all-intra rate control toolkit.

Pipeline: raw video -> per-frame DCT-energy complexity features ->
random-forest bits prediction (the cheap stand-in for a first encoding
pass) -> second-pass QP assignment with bit-budget compensation.
A synthetic encoder model and BD-rate close the loop for
desk-scale validation.
"""

__version__ = "0.1.0"
