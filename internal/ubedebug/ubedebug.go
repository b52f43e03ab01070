// Package ubedebug is the runtime half of µBE's invariant enforcement:
// assertions that compile to real checks under the `ubedebug` build tag
// and to empty inlineable no-ops otherwise. The static half is ube-lint
// (internal/lint); DESIGN.md's invariant catalog describes what each
// guarded invariant protects.
//
// Call sites gate on the Enabled constant so the normal build pays
// nothing — the constant folds, the branch and its argument evaluation
// disappear:
//
//	if ubedebug.Enabled {
//		ubedebug.Assert(idx < len(maps), "register %d out of %d", idx, len(maps))
//	}
//
// The checks wired through this package: PCSA register bounds
// (pcsa.AddHash), clustering agenda entry packing — every field fits
// its bits and an entry decodes to the clusters it was packed from
// (cluster.pack, agenda.entry), incumbent base-state immutability via
// checksum (qef.NewBase/EvalEdit), and the sampled bit-exact delta≡full
// objective audit (engine.deltaObjective). Run them with:
//
//	go test -tags ubedebug ./...
//
// The audit sampling rate is configurable through UBE_DEBUG_AUDIT_EVERY
// (audit every Nth delta evaluation; default 64; 1 audits everything).
// Sampling is counter-based, not random: the debug layer must obey the
// same determinism rules it polices, so it draws no randomness and reads
// no clock.
package ubedebug
