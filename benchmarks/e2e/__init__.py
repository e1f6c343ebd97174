"""End-to-end benchmark of the bootstrap service (see README.md)."""
