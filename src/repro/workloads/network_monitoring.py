"""Network-monitoring relations from the paper's motivating examples (§2.1).

Three queries motivate PIER in the introduction:

1. find sources running both an open spam gateway and a web robot in the
   same domain (a join of ``spamGateways`` and ``robots``);
2. summarise widespread attacks (``GROUP BY fingerprint HAVING cnt > 10``
   over ``intrusions``);
3. the same summary weighted by per-reporter reputation
   (``count(*) * sum(R.weight)`` over a join with ``reputation``).

The paper would obtain these relations from wrappers around Snort, TBIT,
tcpdump, mail servers and the like; none of those traces are available here,
so this module synthesises relations with the same schemas and with enough
skew (a handful of "hot" fingerprints and overlapping domains) that all three
queries return non-trivial answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.catalog import Catalog
from repro.core.tuples import Column, RelationDef, Schema
from repro.exceptions import WorkloadError


@dataclass
class NetworkMonitoringWorkload:
    """Synthetic intrusion-detection relations distributed over nodes.

    Parameters
    ----------
    num_nodes:
        Number of publishing nodes (each stands for one participating server).
    intrusions_per_node:
        Mean number of intrusion fingerprints each node reports.
    num_fingerprints:
        Size of the fingerprint vocabulary; a few of them are "hot" and
        reported by many nodes so the HAVING thresholds are exceeded.
    domain_count:
        Number of distinct client/SMTP domains.
    seed:
        Seed for all randomness.
    """

    num_nodes: int
    intrusions_per_node: int = 6
    num_fingerprints: int = 40
    hot_fingerprints: int = 4
    domain_count: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise WorkloadError("workload needs at least one node")
        rng = random.Random(self.seed)
        self._rng = rng

        self.intrusions_schema = Schema([
            Column("report_id", "int"),
            Column("fingerprint", "str", size_bytes=20),
            Column("address", "str", size_bytes=16),
            Column("port", "int"),
            Column("timestamp", "float"),
        ])
        self.reputation_schema = Schema([
            Column("address", "str", size_bytes=16),
            Column("weight", "float"),
        ])
        self.spam_schema = Schema([
            Column("gw_id", "int"),
            Column("smtpGWDomain", "str", size_bytes=24),
            Column("source", "str", size_bytes=16),
        ])
        self.robots_schema = Schema([
            Column("robot_id", "int"),
            Column("clientDomain", "str", size_bytes=24),
            Column("useragent", "str", size_bytes=24),
        ])

        self.intrusions = RelationDef("intrusions", self.intrusions_schema,
                                      primary_key="report_id", tuple_bytes=120)
        self.reputation = RelationDef("reputation", self.reputation_schema,
                                      primary_key="address", tuple_bytes=40)
        self.spam_gateways = RelationDef("spamGateways", self.spam_schema,
                                         primary_key="gw_id",
                                         resource_id_column="smtpGWDomain",
                                         tuple_bytes=80)
        self.robots = RelationDef("robots", self.robots_schema,
                                  primary_key="robot_id",
                                  resource_id_column="clientDomain",
                                  tuple_bytes=80)

        self.intrusions_by_node: Dict[int, List[dict]] = {}
        self.reputation_by_node: Dict[int, List[dict]] = {}
        self.spam_by_node: Dict[int, List[dict]] = {}
        self.robots_by_node: Dict[int, List[dict]] = {}
        self._generate()

    # ------------------------------------------------------------ generation

    def _address_of(self, node: int) -> str:
        return f"10.0.{node // 256}.{node % 256}"

    def _domain_of(self, index: int) -> str:
        return f"domain{index:03d}.example"

    def _generate(self) -> None:
        rng = self._rng
        report_id = 0
        gw_id = 0
        robot_id = 0
        hot = [f"fp-hot-{i}" for i in range(self.hot_fingerprints)]
        cold = [f"fp-{i}" for i in range(self.num_fingerprints - self.hot_fingerprints)]

        for node in range(self.num_nodes):
            address = self._address_of(node)
            # Intrusion reports: hot fingerprints are reported by ~half the
            # nodes, cold ones rarely, giving a heavy-tailed count histogram.
            rows = []
            for _ in range(self.intrusions_per_node):
                if rng.random() < 0.5 and hot:
                    fingerprint = rng.choice(hot)
                else:
                    fingerprint = rng.choice(cold) if cold else rng.choice(hot)
                rows.append({
                    "report_id": report_id,
                    "fingerprint": fingerprint,
                    "address": address,
                    "port": rng.choice([22, 25, 80, 443, 1433, 8080]),
                    "timestamp": rng.uniform(0.0, 3600.0),
                })
                report_id += 1
            self.intrusions_by_node[node] = rows

            # Every reporting address has a reputation weight.
            self.reputation_by_node[node] = [{
                "address": address,
                "weight": round(rng.uniform(0.1, 2.0), 3),
            }]

            # Roughly a third of nodes run a spam gateway, a third a robot;
            # domains overlap so the join has matches.
            domain = self._domain_of(rng.randrange(self.domain_count))
            spam_rows = []
            robot_rows = []
            if rng.random() < 0.35:
                spam_rows.append({
                    "gw_id": gw_id,
                    "smtpGWDomain": domain,
                    "source": address,
                })
                gw_id += 1
            if rng.random() < 0.35:
                robot_rows.append({
                    "robot_id": robot_id,
                    "clientDomain": domain,
                    "useragent": "crawler/1.0",
                })
                robot_id += 1
            self.spam_by_node[node] = spam_rows
            self.robots_by_node[node] = robot_rows

    # ---------------------------------------------------------------- access

    def catalog(self) -> Catalog:
        """Catalog with all four monitoring relations registered."""
        catalog = Catalog()
        for relation in (self.intrusions, self.reputation, self.spam_gateways, self.robots):
            catalog.register(relation)
        return catalog

    def rows_by_node(self, relation_name: str) -> Dict[int, List[dict]]:
        """Per-node rows for the named relation."""
        mapping = {
            "intrusions": self.intrusions_by_node,
            "reputation": self.reputation_by_node,
            "spamGateways": self.spam_by_node,
            "robots": self.robots_by_node,
        }
        try:
            return mapping[relation_name]
        except KeyError:
            raise WorkloadError(f"unknown monitoring relation {relation_name!r}") from None

    # ------------------------------------------------------------ golden data

    def expected_attack_summary(self, threshold: int = 10) -> List[Tuple[str, int]]:
        """Golden answer of the ``GROUP BY fingerprint HAVING cnt > threshold`` query."""
        counts: Dict[str, int] = {}
        for rows in self.intrusions_by_node.values():
            for row in rows:
                counts[row["fingerprint"]] = counts.get(row["fingerprint"], 0) + 1
        return sorted(
            (fingerprint, count)
            for fingerprint, count in counts.items()
            if count > threshold
        )

    def expected_compromised_sources(self) -> List[str]:
        """Golden answer of the spam-gateway ⋈ robots query (distinct sources)."""
        robot_domains = {
            row["clientDomain"]
            for rows in self.robots_by_node.values()
            for row in rows
        }
        sources = {
            row["source"]
            for rows in self.spam_by_node.values()
            for row in rows
            if row["smtpGWDomain"] in robot_domains
        }
        return sorted(sources)
