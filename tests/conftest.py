import os

# One BLAS thread, as the benchmark runs: on a 2-core machine the acceptance
# tests ran 3x faster than at two.  The BLAS reads these only when numpy is
# first imported, which happens below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
