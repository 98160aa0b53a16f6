"""Backend-independent relational layer over stdlib sqlite3."""
