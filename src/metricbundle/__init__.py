"""Non-Hermitian quantum dynamics with a co-evolved Hilbert-space metric.

Evolves states, the metric, left/right propagators, and the vielbein on one
time grid, transports observables into the Schroedinger, Heisenberg, and
Heisenberg-like pictures, and certifies the equivalence identities between
them numerically.

Import each name from its submodule, such as `metricbundle.evolution` or
`metricbundle.verify`; importing the package itself loads none of them.
"""

__version__ = "0.1.0"
