"""Tests for the pre/post-order interval leaf encoding.

The encoding (``SchemaTree.reindex``) replaces the old per-node leaf
caches: every node carries ``pre``/``post``/``level``/``subtree_size``
and — for pure subtrees — the contiguous window ``[leaf_lo, leaf_hi)``
of the global leaf order. These tests cover the migration oracle, the
unindex-on-mutation safety net (against the stale-leaf-cache bug
class), and join-view augmentation after a completed build.
"""

from __future__ import annotations

import pytest

from repro import CupidMatcher, MatchSession
from repro.config import CupidConfig
from repro.exceptions import SchemaError
from repro.io.sql_ddl import parse_sql_ddl
from repro.tree.construction import construct_schema_tree
from repro.tree.lazy import construct_schema_tree_lazy
from repro.tree.refint import augment_with_join_views
from repro.model.element import SchemaElement
from repro.tree.schema_tree import SchemaTreeNode, verify_interval_encoding

_DDL_S = """
CREATE TABLE Customer (
  CustomerID int PRIMARY KEY,
  Name varchar(40),
  Address varchar(60)
);
CREATE TABLE PurchaseOrder (
  OrderID int PRIMARY KEY,
  ProductName varchar(40),
  CustomerID int REFERENCES Customer(CustomerID)
);
"""

_DDL_T = """
CREATE TABLE Customer (
  CustID int PRIMARY KEY,
  CustomerName varchar(40),
  Address varchar(60)
);
CREATE TABLE Orders (
  OrderNo int PRIMARY KEY,
  Product varchar(40),
  CustID int REFERENCES Customer(CustID)
);
"""


def _wsim_signature(result):
    source_paths = {n.node_id: n.path() for n in result.source_tree.nodes()}
    target_paths = {n.node_id: n.path() for n in result.target_tree.nodes()}
    return sorted(
        (source_paths[s], target_paths[t], value)
        for (s, t), value in result.treematch_result.wsim.items()
    )


def _mapping_signature(mapping):
    return sorted(
        (e.source_path, e.target_path, e.similarity) for e in mapping
    )


class TestIntervalOracle:
    """``verify_interval_encoding`` is the migration oracle: it
    recomputes leaf sets, required flags, frontiers, and window
    arithmetic from scratch and must agree with the encoding."""

    def test_oracle_passes_on_eager_tree(self):
        tree = construct_schema_tree(parse_sql_ddl(_DDL_S, "Orders"))
        verify_interval_encoding(tree)

    def test_oracle_passes_on_lazy_tree(self):
        tree = construct_schema_tree_lazy(parse_sql_ddl(_DDL_S, "Orders"))
        verify_interval_encoding(tree)

    def test_oracle_passes_on_augmented_dag(self):
        tree = construct_schema_tree(parse_sql_ddl(_DDL_S, "Orders"))
        added = augment_with_join_views(tree)
        assert added  # the FK must have produced a join view
        verify_interval_encoding(tree)

    def test_oracle_detects_corrupted_window(self):
        tree = construct_schema_tree(parse_sql_ddl(_DDL_S, "Orders"))
        customer = tree.node_for_path("Customer")
        assert customer.pure and customer.leaf_hi - customer.leaf_lo == 3
        customer.leaf_hi -= 1  # drop a leaf from the window
        with pytest.raises(SchemaError):
            verify_interval_encoding(tree)

    def test_oracle_detects_corrupted_subtree_size(self):
        tree = construct_schema_tree(parse_sql_ddl(_DDL_S, "Orders"))
        customer = tree.node_for_path("Customer")
        customer.subtree_size += 1
        with pytest.raises(SchemaError):
            verify_interval_encoding(tree)

    def test_reindex_env_hook_arms_oracle(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.tree.schema_tree.verify_interval_encoding",
            lambda tree: calls.append(tree),
        )
        monkeypatch.delenv("REPRO_INTERVAL_ORACLE", raising=False)
        construct_schema_tree(parse_sql_ddl(_DDL_S, "Orders"))
        assert not calls
        monkeypatch.setenv("REPRO_INTERVAL_ORACLE", "1")
        tree = construct_schema_tree(parse_sql_ddl(_DDL_S, "Orders"))
        assert calls and calls[-1] is tree


class TestMutationWithoutReindex:
    """Mutation unindexes the touched ancestry; a missed ``reindex()``
    must degrade to a fresh DFS, never to a stale answer (the bug
    class the old invalidate-the-caches protocol could miss)."""

    def test_shared_child_without_reindex_stays_correct(self):
        tree = construct_schema_tree(parse_sql_ddl(_DDL_S, "Orders"))
        po = tree.node_for_path("PurchaseOrder")
        address = tree.node_for_path("Customer", "Address")
        # Warm every interval-backed accessor first.
        before = set(po.leaves())
        po.leaves_with_required_flag()
        po.add_shared_child(address)  # DAG edge, no reindex
        assert po.pre == -1 and tree.root.pre == -1  # ancestry unindexed
        assert set(po.leaves()) == before | {address}
        assert po.leaf_count() == len(before) + 1
        assert address in po.leaves_with_required_flag()
        # Untouched subtrees keep answering out of their old stamp.
        customer = tree.node_for_path("Customer")
        assert customer.leaf_count() == 3
        tree.reindex()
        verify_interval_encoding(tree)
        assert set(po.leaves()) == before | {address}


    def test_second_mutation_unindexes_every_ancestor(self):
        """The unindex walk stops at an already-unindexed node. After
        one mutation high in the tree, a second one deeper down (and
        under a node with an extra parent) must still unindex every
        stamped ancestor along both parents."""
        tree = construct_schema_tree(parse_sql_ddl(_DDL_S, "Orders"))
        customer = tree.node_for_path("Customer")
        po = tree.node_for_path("PurchaseOrder")
        name = tree.node_for_path("Customer", "Name")
        po.add_shared_child(customer)  # DAG: customer has two parents
        tree.reindex()
        assert all(node.pre >= 0 for node in tree.nodes())

        tree.root.add_child(SchemaTreeNode(SchemaElement(name="Extra")))
        assert tree.root.pre == -1 and po.pre >= 0 and customer.pre >= 0
        leaf = SchemaTreeNode(SchemaElement(name="Nickname"))
        name.add_child(leaf)  # below both customer's parents
        for node in (name, customer, po, tree.root):
            assert node.pre == -1, node
        assert leaf in po.leaves() and leaf in customer.leaves()
        assert name not in tree.root.leaves()
        tree.reindex()
        verify_interval_encoding(tree)
        assert leaf in po.leaves()

    def test_postorder_comes_from_the_encoding_until_a_mutation(self):
        tree = construct_schema_tree(parse_sql_ddl(_DDL_S, "Orders"))
        order = tree.postorder()
        assert order == tree._postorder_dfs()
        assert [node.post for node in order] == list(range(len(order)))
        order.clear()  # each call hands out its own list
        assert tree.postorder() == tree._postorder_dfs()

        customer = tree.node_for_path("Customer")
        extra = SchemaTreeNode(SchemaElement(name="Extra"))
        customer.add_child(extra)
        assert tree.root.pre == -1
        assert extra in tree.postorder()  # the DFS, not a stale order
        tree.reindex()
        assert extra in tree.postorder()
        assert tree.postorder() == tree._postorder_dfs()


class TestAugmentAfterCompletedBuild:
    """Regression for the refint stale-cache hazard: DAG join-view
    augmentation *after* a completed PreparedSchema build (every lazy
    tier warm, one match already run) must still yield exactly the
    strong-link counts — hence wsim and mappings — of a tree that was
    augmented before first use."""

    def test_late_augmentation_matches_fresh_build(self):
        source = parse_sql_ddl(_DDL_S, "S")
        target = parse_sql_ddl(_DDL_T, "T")
        fresh = CupidMatcher(
            config=CupidConfig(use_refint_joins=True)
        ).match(source, target)

        session = MatchSession(config=CupidConfig(use_refint_joins=False))
        prep_s = session.prepare(source)
        prep_t = session.prepare(target)
        # A match builds every lazy tier (vocabulary, tree, layout).
        session.match(source, target)  # completed build, caches hot
        assert augment_with_join_views(prep_s.tree)
        assert augment_with_join_views(prep_t.tree)
        verify_interval_encoding(prep_s.tree)
        verify_interval_encoding(prep_t.tree)
        late = session.match(source, target)

        assert _wsim_signature(late) == _wsim_signature(fresh)
        assert _mapping_signature(late.leaf_mapping) == (
            _mapping_signature(fresh.leaf_mapping)
        )
        assert _mapping_signature(late.nonleaf_mapping) == (
            _mapping_signature(fresh.nonleaf_mapping)
        )
