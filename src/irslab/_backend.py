"""Kernel backend selection.

The compiled extension is preferred when present; the pure-Python twin is
the fallback.  ``IRSLAB_BACKEND=pure`` (or ``compiled``) forces a choice.
"""

import os

from irslab import _purekernels

_FORCED = os.environ.get("IRSLAB_BACKEND", "").strip().lower()

if _FORCED == "pure":
    kernels = _purekernels
elif _FORCED == "compiled":
    from irslab import _kernels as kernels  # noqa: F401  (ImportError is the contract)
else:
    try:
        from irslab import _kernels as kernels
    except ImportError:
        kernels = _purekernels

BACKEND = kernels.BACKEND_NAME


def available_backends():
    names = ["pure"]
    try:
        from irslab import _kernels  # noqa: F401

        names.insert(0, "compiled")
    except ImportError:
        pass
    return names


def get_backend(name):
    if name == "pure":
        return _purekernels
    if name == "compiled":
        from irslab import _kernels

        return _kernels
    raise ValueError("unknown backend %r" % (name,))

