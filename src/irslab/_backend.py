"""The kernel module the package calls, and the backend name reports carry."""

from irslab import _purekernels as kernels

BACKEND = "pure"
