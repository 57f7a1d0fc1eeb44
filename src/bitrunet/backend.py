"""Name of the convolution kernel path, recorded with benchmark runs.

The kernels in ``kernels.py`` have a single implementation: numpy
contractions on BLAS.
"""

ACTIVE_BACKEND = "numpy"
