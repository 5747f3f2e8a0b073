"""Simulator and verifier for anonymous quantum sensing.

Submodules:
    symcomb  -- Hamming-weight combinatorics and the Johnson graph
    qcore    -- pure states, phase evolution, noise channels, measurement, eigensolver
    sensing  -- the two-field sensing protocol: POVM, probabilities, estimators
    qsv      -- the verification strategy, its spectra, protocols, complexity
    qopt     -- initial-state optimization study and CSV sweep
    cli      -- command-line entry point
"""

__version__ = "0.1.0"
