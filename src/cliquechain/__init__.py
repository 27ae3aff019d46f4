"""Discrete-event simulator of a clique-mining proof-of-work blockchain.

Miners race to extend a chain whose difficulty policy rewards publishing
strictly improving maximum-clique solutions: a miner holding an improvement
may mine its next block at a reduced difficulty.  The package provides the
chain and difficulty rules, a resumable Bron–Kerbosch search (Tomita pivot),
the event-driven mining simulation, and drivers for the shipped experiments.
"""

__version__ = "0.1.0"
