"""Device model: topology + per-qubit transmon parameters + couplings.

A :class:`Device` bundles everything the compiler needs to know about the
hardware (Section VI-C "Architectural features"):

* the connectivity graph ``Gc`` (which qubit pairs share a coupler),
* a :class:`~repro.devices.transmon.Transmon` per qubit, with maximum
  frequencies sampled from a Gaussian ``N(omega, 0.1 GHz)`` to model
  fabrication variation,
* a bare coupling strength ``g0/2pi ~= 30 MHz`` per edge,
* whether the couplers themselves are tunable (the "gmon" feature used only
  by Baseline G).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..graph import Graph, bfs_distances
from .topologies import grid_graph, topology_by_name, grid_coordinates
from .transmon import Transmon, TransmonParams

__all__ = [
    "Device",
    "DEFAULT_COUPLING_GHZ",
    "DEFAULT_OMEGA_MAX_MEAN_GHZ",
    "DEFAULT_OMEGA_MAX_STD_GHZ",
    "PREPARED_CACHE_ATTR",
]

#: Device-instance attribute holding the compilers' memoized prepared
#: (routed + decomposed) circuits.  Defined here — the neutral ground both
#: :mod:`repro.core.compiler` (writer) and :mod:`repro.noise.metrics`
#: (``clear_spectator_cache`` invalidation) import — so the two can never
#: drift apart.
PREPARED_CACHE_ATTR = "_prepared_circuit_cache"

# Effective qubit-qubit coupling (GHz).  The value is chosen so that a full
# iSWAP at the bare coupling takes ~50 ns (t = 1 / (4 g0)), matching the
# two-qubit gate duration quoted in Appendix C; it also matches the residual
# interaction-strength scale of Fig. 2 (a few MHz near resonance).
DEFAULT_COUPLING_GHZ: float = 0.005
DEFAULT_OMEGA_MAX_MEAN_GHZ: float = 7.0
DEFAULT_OMEGA_MAX_STD_GHZ: float = 0.1


@dataclass
class Device:
    """A superconducting quantum device.

    Attributes
    ----------
    graph:
        Connectivity graph ``Gc``; nodes are qubit indices ``0..n-1``.
    qubits:
        One :class:`Transmon` per node.
    couplings:
        Bare coupling strength ``g0`` (GHz) per edge, keyed by the sorted
        qubit pair.
    tunable_couplers:
        ``True`` for gmon-style hardware whose couplers can be switched off;
        the fixed-coupler architectures this paper champions use ``False``.
    name:
        Human-readable description used in reports.
    """

    graph: Graph  # repro-lint: noncodec(serialized as the canonical 'edges' list, rebuilt by from_dict)
    qubits: List[Transmon]
    couplings: Dict[Tuple[int, int], float]
    tunable_couplers: bool = False
    name: str = "device"

    def __post_init__(self) -> None:
        expected_nodes = set(range(len(self.qubits)))
        if set(self.graph.nodes) != expected_nodes:
            raise ValueError(
                "device graph nodes must be consecutive integers matching the qubit list"
            )
        for edge in self.graph.edges:
            key = tuple(sorted(edge))
            if key not in self.couplings:
                raise ValueError(f"missing coupling strength for edge {key}")

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph,
        *,
        omega_max_mean: float = DEFAULT_OMEGA_MAX_MEAN_GHZ,
        omega_max_std: float = DEFAULT_OMEGA_MAX_STD_GHZ,
        coupling: float = DEFAULT_COUPLING_GHZ,
        base_params: Optional[TransmonParams] = None,
        tunable_couplers: bool = False,
        seed: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "Device":
        """Build a device on an arbitrary connectivity graph.

        *graph* is a :class:`~repro.graph.Graph` or any graph object with
        ``nodes`` and ``edges`` (and optionally ``name``).  Its nodes are
        relabelled ``0..n-1`` in sorted order; the copy keeps the node order
        and adds the edges in ``graph.edges`` order.

        Maximum qubit frequencies are drawn i.i.d. from
        ``N(omega_max_mean, omega_max_std)`` to model fabrication spread, as
        in the paper's experimental setup.  Pass a ``seed`` for
        reproducibility.
        """
        rng = np.random.default_rng(seed)  # repro-lint: determinism-ok(documented fabrication-spread sampler; compiled devices pin a seed)
        template = base_params or TransmonParams()
        label = {node: i for i, node in enumerate(sorted(graph.nodes))}
        n = len(label)
        relabelled = Graph(name=getattr(graph, "name", ""))
        relabelled.add_nodes_from(label[node] for node in graph.nodes)
        relabelled.add_edges_from((label[u], label[v]) for u, v in graph.edges)
        qubits = []
        for index in range(n):
            omega_max = float(rng.normal(omega_max_mean, omega_max_std))
            params = TransmonParams(
                omega_max=omega_max,
                anharmonicity=template.anharmonicity,
                asymmetry=template.asymmetry,
                t1_ns=template.t1_ns,
                t2_ns=template.t2_ns,
                flux_tuning_time_ns=template.flux_tuning_time_ns,
            )
            qubits.append(Transmon(params, index=index))
        couplings = {tuple(sorted(edge)): coupling for edge in relabelled.edges}
        return cls(
            graph=relabelled,
            qubits=qubits,
            couplings=couplings,
            tunable_couplers=tunable_couplers,
            name=name or (graph.name or f"device-{n}"),
        )

    @classmethod
    def grid(cls, num_qubits: int, **kwargs) -> "Device":
        """Square-mesh device of ``num_qubits`` (must be a perfect square)."""
        return cls.from_graph(grid_graph(num_qubits), **kwargs)

    @classmethod
    def from_topology_name(cls, name: str, num_qubits: int, **kwargs) -> "Device":
        """Build a device from a Fig. 13 topology name (see ``topologies``)."""
        device = cls.from_graph(topology_by_name(name, num_qubits), **kwargs)
        device.name = f"{name}-{num_qubits}"
        return device

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def edges(self) -> List[Tuple[int, int]]:
        """Sorted list of couplings (each as a sorted qubit pair)."""
        return sorted(tuple(sorted(e)) for e in self.graph.edges)

    def neighbors(self, qubit: int) -> List[int]:
        return sorted(self.graph.neighbors(qubit))

    def has_edge(self, a: int, b: int) -> bool:
        return self.graph.has_edge(a, b)

    def coupling_strength(self, a: int, b: int) -> float:
        """Bare coupling ``g0`` (GHz) of the coupler between two adjacent qubits."""
        key = tuple(sorted((a, b)))
        if key not in self.couplings:
            raise KeyError(f"qubits {a} and {b} are not directly coupled")
        return self.couplings[key]

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance between two qubits on the connectivity graph.

        Raises ``ValueError`` when the two lie in different components.
        """
        distance = bfs_distances(self.graph, a).get(b)
        if distance is None:
            raise ValueError(f"qubits {a} and {b} are not connected on {self.name}")
        return distance

    # ------------------------------------------------------------------
    # frequency ranges
    # ------------------------------------------------------------------
    def common_tunable_range(self) -> Tuple[float, float]:
        """Frequency interval reachable by *every* qubit on the device (GHz)."""
        low = max(q.tunable_range[0] for q in self.qubits)
        high = min(q.tunable_range[1] for q in self.qubits)
        if low >= high:
            raise ValueError("device qubits share no common tunable frequency range")
        return (low, high)

    def tunable_range(self, qubit: int) -> Tuple[float, float]:
        return self.qubits[qubit].tunable_range

    def coordinates(self) -> Optional[Dict[int, Tuple[int, int]]]:
        """Grid coordinates when the device is a square mesh, else ``None``."""
        side = int(round(math.sqrt(self.num_qubits)))
        if side * side != self.num_qubits:
            return None
        if set(grid_graph(self.num_qubits).edges) <= set(self.edges()):
            return grid_coordinates(self.num_qubits)
        return None

    # ------------------------------------------------------------------
    # (de)serialization — consumed by the repro.service program store
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form of the full device (topology + physics).

        Edges are emitted in canonical sorted order so the payload — and any
        hash of it — is independent of graph construction history.
        """
        edges = self.edges()
        return {
            "name": self.name,
            "num_qubits": self.num_qubits,
            "tunable_couplers": self.tunable_couplers,
            "qubits": [q.params.to_dict() for q in self.qubits],
            "edges": [list(edge) for edge in edges],
            "couplings": [self.couplings[edge] for edge in edges],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Device":
        """Inverse of :meth:`to_dict`.

        The graph is rebuilt with nodes ``0..n-1`` in order and edges in the
        canonical sorted order, so every deserialized copy of a device has
        the same iteration order (deterministic downstream numerics).
        """
        num_qubits = int(payload["num_qubits"])
        graph = Graph()
        graph.add_nodes_from(range(num_qubits))
        edges = [tuple(sorted(edge)) for edge in payload["edges"]]
        graph.add_edges_from(edges)
        qubits = [
            Transmon(TransmonParams.from_dict(params), index=i)
            for i, params in enumerate(payload["qubits"])
        ]
        couplings = {
            edge: float(strength)
            for edge, strength in zip(edges, payload["couplings"])
        }
        return cls(
            graph=graph,
            qubits=qubits,
            couplings=couplings,
            tunable_couplers=bool(payload["tunable_couplers"]),
            name=str(payload["name"]),
        )

    def with_tunable_couplers(self, enabled: bool = True) -> "Device":
        """Return a copy of this device with the gmon coupler feature toggled.

        The copy shares this device's prepared-circuit memo: routing and
        decomposition read only the topology, which the two have in common.
        """
        copy = Device(
            graph=self.graph.copy(),
            qubits=list(self.qubits),
            couplings=dict(self.couplings),
            tunable_couplers=enabled,
            name=f"{self.name}{'+gmon' if enabled else ''}",
        )
        prepared = vars(self).setdefault(PREPARED_CACHE_ATTR, {})
        setattr(copy, PREPARED_CACHE_ATTR, prepared)
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Device(name={self.name!r}, qubits={self.num_qubits}, "
            f"couplings={self.graph.number_of_edges()}, "
            f"tunable_couplers={self.tunable_couplers})"
        )
