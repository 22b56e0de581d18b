package ris

// ScanCoverage exposes the arena-scan coverage oracle to the external
// ris_test package.
var ScanCoverage = scanCoverage
