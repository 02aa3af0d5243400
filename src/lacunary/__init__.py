"""Exact arithmetic for lacunary power series: continued-fraction
expansion over the Laurent field, closed-form convergent denominators
indexed by 2-adic integers, the extended Stern-Brocot sequence, and
finite automata for the mod-2 coefficient streams."""

__version__ = "0.1.0"
