"""irslab: exact envelope probabilities, certified enclosures and samplers
for co-induced invariant random subgroups of the free group on two
generators."""

__version__ = "0.1.0"
