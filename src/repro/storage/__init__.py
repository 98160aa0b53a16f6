"""Storage substrate: media, robotic tape, HSM, catalog, archive."""
