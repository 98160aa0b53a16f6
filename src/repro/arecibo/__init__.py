"""The Arecibo ALFA pulsar survey: synthetic sky and telescope, dedispersion,
Fourier search with harmonic summing, folding, acceleration search,
single-pulse search, RFI excision, sifting, meta-analysis, and the Figure-1
flow."""
