"""Storage substrate: media, disk pools, robotic tape, HSM, catalog, archive."""
