"""End-to-end and per-layer benchmark for the stockfuse package."""
