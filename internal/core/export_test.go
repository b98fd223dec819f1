package core

// EpochsTopology lets the package's external tests stage the epochs
// benchmark's graph.
var EpochsTopology = epochsTopology
