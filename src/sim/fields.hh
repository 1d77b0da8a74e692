/**
 * @file
 * Every counter of the measurement structs, listed once, so the
 * JSON/CSV writers, the JSON reader, the determinism comparison
 * (identicalMeasurement) and the replication aggregates
 * (CellAggregate) can never drift apart field-wise; likewise every
 * serialized field of the spec's config structs.
 */

#ifndef SIQ_SIM_FIELDS_HH
#define SIQ_SIM_FIELDS_HH

#define SIQ_CORE_STATS_FIELDS(X)                                         \
    X(cycles) X(committed) X(fetched) X(dispatched) X(issued)            \
    X(hintsApplied) X(branchMispredicts) X(frontRedirects)               \
    X(condBranches) X(dispatchStallRob) X(dispatchStallIqFull)           \
    X(dispatchStallRange) X(dispatchStallLimit) X(dispatchStallRegs)     \
    X(dispatchStallLsq) X(loads) X(stores) X(loadForwards)               \
    X(rfIntReads) X(rfIntWrites) X(rfFpReads) X(rfFpWrites)              \
    X(rfIntLiveSum) X(rfIntPoweredBankCycles) X(rfIntBankCycles)         \
    X(rfFpLiveSum) X(rfFpPoweredBankCycles) X(rfFpBankCycles)

/**
 * Counters that are only nonzero when the speculative front end is
 * enabled (CoreConfig::specFrontEnd). They live in CoreStats like any
 * other counter — identicalMeasurement and replication aggregation
 * cover them automatically — but the JSON/CSV writers emit them
 * through this separate list so oracle-mode exports (all-zero spec
 * block, elided) keep their historical bytes and the determinism-pin
 * digest never moves.
 */
#define SIQ_CORE_SPEC_STATS_FIELDS(X)                                    \
    X(wrongPathFetched) X(wrongPathDispatched) X(wrongPathIssued)        \
    X(squashes) X(squashCycles) X(squashedInsts)

#define SIQ_IQ_EVENT_FIELDS(X)                                           \
    X(broadcasts) X(cmpGated) X(cmpPowered) X(cmpConventional)           \
    X(dispatchWrites) X(issueReads) X(poweredBankCycles)                 \
    X(totalBankCycles) X(occupancySum) X(cycles)

#define SIQ_COMPILE_STATS_FIELDS(X)                                      \
    X(proceduresAnalyzed) X(blocksAnalyzed) X(loopsAnalyzed)             \
    X(hintNoopsInserted) X(tagsApplied) X(hintsElided)

/**
 * Per-cell wall-clock timing fields of RunResult, one per pipeline
 * phase: workload synthesis, functional-trace production and compiler
 * annotation. They are metadata, not measurements — canonicalize()
 * zeroes them and identicalMeasurement() ignores them — but they
 * round-trip exactly through the JSON/CSV writers so cache reuse
 * (traceSeconds == 0 on a trace-cache hit) is visible in reports.
 */
#define SIQ_RUN_TIMING_FIELDS(X)                                         \
    X(generateSeconds) X(traceSeconds) X(compileSeconds)

/** SweepCacheStats: build/hit counters, then trace-cache counters
 *  (the sweep export writes the trace half only when nonzero). */
#define SIQ_CACHE_BUILD_FIELDS(X)                                        \
    X(workloadBuilds) X(workloadHits) X(compileBuilds) X(compileHits)

#define SIQ_CACHE_TRACE_FIELDS(X)                                        \
    X(traceBuilds) X(traceHits) X(traceEvicted) X(traceBytes)

/**
 * The config structs a sweep spec serializes (writeSpecJson), each
 * listed in JSON key order. One generic writer and reader per value
 * kind walk these lists (sim/report.cc), so a new config field is one
 * list entry. Key order is the spec's byte format: checkpoint
 * spec.json files and serve requests depend on it, and
 * tests/test_checkpoint.cc pins the bytes. CoreConfig::specFrontEnd
 * is the one field written only when set.
 */
#define SIQ_CACHE_CONFIG_FIELDS(X)                                       \
    X(name) X(sizeBytes) X(assoc) X(lineBytes) X(hitLatency)

#define SIQ_REG_FILE_CONFIG_FIELDS(X) X(numPhys) X(numArch) X(bankSize)

#define SIQ_IQ_CONFIG_FIELDS(X) X(numEntries) X(bankSize)

#define SIQ_LSQ_CONFIG_FIELDS(X) X(numEntries)

#define SIQ_BPRED_CONFIG_FIELDS(X)                                       \
    X(gshareEntries) X(bimodalEntries) X(selectorEntries)                \
    X(btbEntries) X(btbAssoc) X(rasEntries)

#define SIQ_MEM_HIERARCHY_CONFIG_FIELDS(X) X(l1i) X(l1d) X(l2) X(memLatency)

#define SIQ_CORE_CONFIG_FIELDS(X)                                        \
    X(fetchWidth) X(dispatchWidth) X(issueWidth) X(commitWidth)          \
    X(decodeDepth) X(fetchQueueSize) X(robSize) X(iq) X(lsq)             \
    X(intRegs) X(fpRegs) X(fuCounts) X(bpred) X(specFrontEnd) X(mem)

#define SIQ_WORKLOAD_PARAMS_FIELDS(X) X(scale) X(repDivisor) X(seed)

#define SIQ_ABELLA_CONFIG_FIELDS(X)                                      \
    X(iqSize) X(robSize) X(portion) X(minIq) X(robFloor)                 \
    X(intervalCycles) X(slackPortions) X(stallFractionToGrow)

#define SIQ_FOLEGNANI_CONFIG_FIELDS(X)                                   \
    X(iqSize) X(portion) X(minSize) X(intervalCycles)                    \
    X(contributionThreshold) X(expandPeriod)

#define SIQ_RUN_CONFIG_FIELDS(X)                                         \
    X(workload) X(warmupInsts) X(measureInsts) X(minHint)                \
    X(elideRedundant) X(unrollFactor) X(core) X(abella) X(folegnani)

#endif // SIQ_SIM_FIELDS_HH
