"""Name of the convolution kernel path, recorded with benchmark runs.

The kernels in ``kernels.py`` have a single implementation: numpy matrix
products (BLAS GEMMs) over views of the padded input, one per run of kernel
taps and residue class.
"""

ACTIVE_BACKEND = "numpy"
