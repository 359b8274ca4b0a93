package lp

// Certify exposes the test-only optimality certificate to the external test
// package, whose probe builds its programs through internal/routing.
var Certify = certify
