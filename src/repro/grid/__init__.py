"""Section-5 'next steps': service registry, grid data movement, federation."""
