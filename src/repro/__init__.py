"""repro — Random, Ephemeral Transaction Identifiers (RETRI).

A complete, from-scratch reproduction of *"Random, Ephemeral Transaction
Identifiers in Dynamic Sensor Networks"* (Elson & Estrin, ICDCS 2001):

* the **analytic model** of identifier-collision probability and
  transmission efficiency (:mod:`repro.core.model`),
* **identifier selection** algorithms — uniform, listening, oracle
  (:mod:`repro.core.identifiers`),
* **Address-Free Fragmentation**, the paper's case-study protocol,
  with the statically-addressed IP-style baseline (:mod:`repro.aff`),
* a **discrete-event simulated radio testbed** standing in for the
  paper's Radiometrix RPC hardware (:mod:`repro.sim`, :mod:`repro.radio`,
  :mod:`repro.topology`),
* the Section 6 **application contexts** — interest reinforcement and
  codebook name compression (:mod:`repro.apps`), and
* **experiment harnesses** regenerating every figure (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import optimal_identifier_bits, p_success
>>> optimal_identifier_bits(data_bits=16, density=16)[0]   # the paper's "9 bits"
9
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._lazy import export_lazily

if TYPE_CHECKING:
    from .core import (
        IdentifierSelector,
        IdentifierSpace,
        ListeningSelector,
        OracleSelector,
        RetriPolicy,
        StaticGlobalPolicy,
        StaticLocalPolicy,
        DynamicLocalPolicy,
        Transaction,
        TransactionLog,
        UniformSelector,
        collision_probability,
        crossover_density,
        efficiency_aff,
        efficiency_static,
        min_static_bits,
        optimal_identifier_bits,
        p_success,
    )
    from .aff import AffDriver, Fragmenter, InstrumentedReceiver, Reassembler, StaticDriver
    from .net import BitBudget, Packet
    from .radio import BroadcastMedium, Frame, Radio
    from .sim import RngRegistry, Simulator
    from .topology import DiskGraph, FullMesh, Star

__version__ = "1.0.0"

__all__ = [
    "AffDriver",
    "BitBudget",
    "BroadcastMedium",
    "DiskGraph",
    "DynamicLocalPolicy",
    "Fragmenter",
    "Frame",
    "FullMesh",
    "IdentifierSelector",
    "IdentifierSpace",
    "InstrumentedReceiver",
    "ListeningSelector",
    "OracleSelector",
    "Packet",
    "Radio",
    "Reassembler",
    "RetriPolicy",
    "RngRegistry",
    "Simulator",
    "Star",
    "StaticDriver",
    "StaticGlobalPolicy",
    "StaticLocalPolicy",
    "Transaction",
    "TransactionLog",
    "UniformSelector",
    "collision_probability",
    "crossover_density",
    "efficiency_aff",
    "efficiency_static",
    "min_static_bits",
    "optimal_identifier_bits",
    "p_success",
    "__version__",
]

export_lazily(
    __name__,
    {
        ".core.identifiers": (
            "IdentifierSelector", "IdentifierSpace", "ListeningSelector",
            "OracleSelector", "UniformSelector",
        ),
        ".core.policies": (
            "RetriPolicy", "StaticGlobalPolicy", "StaticLocalPolicy",
            "DynamicLocalPolicy",
        ),
        ".core.transactions": ("Transaction", "TransactionLog"),
        ".core.model": (
            "collision_probability", "crossover_density", "efficiency_aff",
            "efficiency_static", "min_static_bits", "optimal_identifier_bits",
            "p_success",
        ),
        ".aff.driver": ("AffDriver",),
        ".aff.fragmenter": ("Fragmenter",),
        ".aff.instrumented": ("InstrumentedReceiver",),
        ".aff.reassembler": ("Reassembler",),
        ".aff.static_frag": ("StaticDriver",),
        ".net.packets": ("BitBudget", "Packet"),
        ".radio.medium": ("BroadcastMedium",),
        ".radio.frame": ("Frame",),
        ".radio.radio": ("Radio",),
        ".sim.rng": ("RngRegistry",),
        ".sim.engine": ("Simulator",),
        ".topology.graphs": ("DiskGraph", "FullMesh", "Star"),
    },
)
