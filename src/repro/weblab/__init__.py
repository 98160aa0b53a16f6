"""The Cornell WebLab: synthetic evolving web, ARC/DAT formats, preload
subsystem, metadata database, page store, retro browser, subsets and
stratified sampling, web-graph analytics, burst detection, full-text index,
and the web-services facade."""
