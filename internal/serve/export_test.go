package serve

// MaxLineBytes exposes the ingest line cap to the external tests.
const MaxLineBytes = maxLineBytes

// MaxRoundJump exposes the virtual-clock round-jump bound to the external
// tests.
const MaxRoundJump = maxRoundJump
