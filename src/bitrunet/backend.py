"""Name of the convolution kernel path, recorded with benchmark runs.

The kernels in ``kernels.py`` have a single implementation: one numpy
matrix product (a BLAS GEMM) per kernel tap.
"""

ACTIVE_BACKEND = "numpy"
