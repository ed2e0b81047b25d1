"""Phase-space certification of genuine multipartite entanglement.

Tools for multimode bosonic states: a dense truncated-Fock oracle, passive
linear optics and loss channels, Wigner/characteristic-function evaluation,
closed-form reference state families, five certification schemes built on
displaced-parity measurements, and the supporting numerics (rigorous
midpoint quadrature, seeded optimization and sampling).

The package re-exports nothing: import the module that holds a name
(``cvgme.fock_core``, ``gaussian_ops``, ``phase_space``, ``families``,
``numerics``, ``witnesses`` or ``cli``).
"""

__version__ = "0.1.0"
