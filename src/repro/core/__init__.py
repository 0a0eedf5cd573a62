"""PIER core: the relational query processor (the paper's primary contribution).

The core package contains the "boxes and arrows" dataflow engine
(:mod:`repro.core.operators`), the relational data model
(:mod:`repro.core.tuples`, :mod:`repro.core.expressions`), the four
DHT-based distributed join strategies and query dissemination
(:mod:`repro.core.executor`, :mod:`repro.core.query`), plus the features the
paper lists as next steps and which we implement as extensions: a catalog
manager (:mod:`repro.core.catalog`), a declarative SQL front end
(:mod:`repro.core.sql`), hierarchical in-network aggregation
(:mod:`repro.core.aggregation_tree`) and continuous/windowed queries
(:mod:`repro.core.continuous`).
"""
