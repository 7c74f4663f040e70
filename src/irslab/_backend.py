"""The kernel module the package calls; BACKEND names it for perfbench's worker."""

from irslab import _purekernels as kernels

BACKEND = "pure"
