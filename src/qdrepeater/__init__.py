"""Performance toolkit for a spin-photon quantum repeater chain.

Analytic rate and fidelity models, a discrete-event Monte Carlo simulator of
the nested protocol, and a small exact quantum oracle for desk-scale
validation of the analytic approximations.

The layer modules (``params``, ``rates``, ``fidelity``, ``mcsim``, ``qsim``,
``acceptance``, ``cli``) are the API; the package root re-exports nothing,
so importing it loads none of them.
"""

__version__ = "0.1.0"
