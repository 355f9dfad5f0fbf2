"""The kernel path the package runs on.

Every hot operation (CSR block products, Gram reductions, basis updates) is
a numpy/scipy call; there is no compiled extension.  ``backend_name()`` is
what run records and benchmark facts report.
"""


def backend_name():
    return "numpy"
