"""Seeded benchmark of the gaquot public API: workloads, checks and tracing."""
