"""The CLEO physics pipeline: synthetic detector, reconstruction,
post-reconstruction, Monte Carlo, analysis, and the Figure-2 flow."""
