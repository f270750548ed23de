"""Persistent schema repository: ingest once, search from any process.

Cupid positions Match as a service over a *repository* of schemas
(Section 2) — a warehouse team keeps every source feed's schema on
hand and asks "which known schemas does this new feed resemble, and
how do its columns map?". A :class:`repro.SchemaRepository` makes that
durable:

* ``ingest(schema)`` stores the schema in a versioned on-disk format
  under a content-addressed id — later processes load it and prepare
  it again (normalization, categorization, tree + leaf layout), with
  bit-identical match results;
* an inverted vocabulary-token index ranks the whole corpus against a
  query without running TreeMatch, so ``search(query, k,
  candidates=C)`` runs the full pipeline only on the C most promising
  schemas.

The same flows are available on the command line::

    python -m repro index schemas/ --repo corpus.repo
    python -m repro search newfeed.sql --repo corpus.repo -k 3

Run:  python examples/repository_search.py
"""

import shutil
import tempfile

from repro import SchemaRepository, schema_from_tree


def build_catalog():
    """A small corpus: three source systems' order schemas."""
    shop = schema_from_tree(
        "ShopOrders",
        {
            "Order": {
                "OrderNum": "integer",
                "Qty": "integer",
                "UnitCost": "money",
                "ShipCity": "string",
            },
        },
    )
    warehouse = schema_from_tree(
        "WarehouseShipments",
        {
            "Shipment": {
                "ShipmentID": "integer",
                "Carrier": "string",
                "Weight": "decimal",
                "DeliveryDate": "date",
            },
        },
    )
    billing = schema_from_tree(
        "BillingInvoices",
        {
            "Invoice": {
                "InvoiceNumber": "integer",
                "Amount": "money",
                "DueDate": "date",
                "CustomerName": "string",
            },
        },
    )
    return [shop, warehouse, billing]


def main() -> None:
    root = tempfile.mkdtemp(prefix="repro_repository_")
    try:
        # ---- Process 1: build the corpus ---------------------------
        with SchemaRepository(root) as repo:
            for schema in build_catalog():
                schema_id = repo.ingest(schema)
                print(f"ingested {schema_id}")
        # The schema artifacts were written by each ingest; leaving
        # the `with` block published them in repository.json, whose
        # catalog also carries each schema's vocabulary-index profile.

        # ---- Process 2 (simulated): search the persisted corpus ----
        query = schema_from_tree(
            "NewFeed",
            {
                "Purchase": {
                    "PurchaseNumber": "integer",
                    "Quantity": "integer",
                    "UnitPrice": "money",
                    "DeliveryCity": "string",
                },
            },
        )
        repo = SchemaRepository.open(root)
        # candidates=2 → the index prunes the corpus to its two best
        # schemas; only those are actually matched.
        hits = repo.search(query, k=2, candidates=2)
        print(
            f"\nquery {hits.query_name!r}: "
            f"{hits.stats['candidates_considered']} matched, "
            f"{hits.stats['candidates_pruned']} pruned by the index"
        )
        for rank, hit in enumerate(hits, start=1):
            print(
                f"\n{rank}. {hit.schema_name} "
                f"(score {hit.score:.3f})"
            )
            for element in sorted(
                hit.result.leaf_mapping,
                key=lambda e: -e.similarity,
            ):
                print(f"   {element}")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
