#include "sim/serve.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <istream>
#include <list>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/report.hh"

namespace siq::sim
{

namespace
{

/** A completed cell, canonicalized for streaming. */
struct CellPayload
{
    RunResult cell;
    CellAggregate agg;
    bool hasAgg = false;
    int seeds = 1;
};

/** Bounded blocking record queue: push blocks while full (the
 *  backpressure), pop blocks while empty. close() lets pop drain
 *  then return false; shutdown() additionally discards everything
 *  and unblocks producers (reader hung up). */
class RecordQueue
{
  public:
    explicit RecordQueue(std::size_t capacity) : cap(capacity) {}

    bool
    push(std::string rec)
    {
        std::unique_lock lock(mu);
        notFull.wait(lock,
                     [&] { return discarding || q.size() < cap; });
        if (discarding)
            return false;
        q.push_back(std::move(rec));
        notEmpty.notify_one();
        return true;
    }

    /** push with a bounded wait: false when the queue stayed full
     *  for @p timeout (or is discarding). The cross-client fan-out
     *  path uses this so one tenant's unread queue cannot park
     *  another tenant's simulation worker forever. */
    bool
    pushFor(std::string rec, std::chrono::milliseconds timeout)
    {
        std::unique_lock lock(mu);
        if (!notFull.wait_for(lock, timeout, [&] {
                return discarding || q.size() < cap;
            }))
            return false;
        if (discarding)
            return false;
        q.push_back(std::move(rec));
        notEmpty.notify_one();
        return true;
    }

    bool
    pop(std::string &out)
    {
        std::unique_lock lock(mu);
        notEmpty.wait(lock, [&] { return !q.empty() || closed; });
        if (q.empty())
            return false;
        out = std::move(q.front());
        q.pop_front();
        notFull.notify_one();
        return true;
    }

    void
    close()
    {
        std::lock_guard lock(mu);
        closed = true;
        notEmpty.notify_all();
    }

    void
    shutdown()
    {
        std::lock_guard lock(mu);
        closed = true;
        discarding = true;
        q.clear();
        notEmpty.notify_all();
        notFull.notify_all();
    }

  private:
    const std::size_t cap;
    std::mutex mu;
    std::condition_variable notFull, notEmpty;
    std::deque<std::string> q;
    bool closed = false;
    bool discarding = false;
};

struct Request;

/** One in-flight cell simulation: the claiming request runs it,
 *  waiters receive the fan-out. `waiters` is guarded by the engine's
 *  store mutex; the done/failed/payload fields by `mu`. */
struct Flight
{
    std::string key;

    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool failed = false;
    std::string error;
    CellPayload payload;

    struct Waiter
    {
        std::shared_ptr<Request> req;
        std::size_t index;
    };
    std::vector<Waiter> waiters;
};

std::string
chomp(std::string s)
{
    while (!s.empty() && s.back() == '\n')
        s.pop_back();
    return s;
}

/** Hard cap on one request line. Generous — the largest realistic
 *  spec is a few hundred KiB — but bounded, so an unframed or
 *  malicious sender cannot grow the connection buffer (or the JSON
 *  parse) without limit. */
constexpr std::size_t kMaxRequestBytes = 16u << 20; // 16 MiB

} // namespace

// ------------------------------------------------------ client state

struct ServeEngine::Client::State
{
    State(std::shared_ptr<Impl> eng, std::size_t queueCap)
        : engine(std::move(eng)), queue(queueCap)
    {
    }

    std::shared_ptr<Impl> engine;
    RecordQueue queue;

    std::mutex mu; ///< guards everything below
    std::unordered_map<std::string, std::shared_ptr<Request>> active;
    std::vector<std::thread> threads;
    /** finished request threads, parked here by finishRequest() and
     *  joined on the next submitLine (or in ~Client): a long-lived
     *  connection must not retain one joinable thread per request it
     *  ever submitted */
    std::vector<std::thread> doneThreads;
    bool noMoreInput = false;

    /** queue.close() once input ended and the last request drained;
     *  call with `mu` held. */
    void
    maybeFinish()
    {
        if (noMoreInput && active.empty())
            queue.close();
    }

    /** Reader hung up — or proved chronically slow on the fan-out
     *  path: discard the queue, unblock producers, cancel every
     *  request. Idempotent. Defined after Request (it touches the
     *  cancelled flag). */
    void hardClose();
};

namespace
{

/** One accepted request: a spec, its per-cell dedupe plan, and the
 *  counters its done record reports. */
struct Request
{
    enum class Plan : std::uint8_t {
        Undecided,
        Simulate,  ///< we claimed the flight; not yet started
        Running,   ///< claimed and confirmed at execution time
        Wait,      ///< attached to another request's flight
        Cached,    ///< answered from the completed-cell LRU
        Cancelled, ///< drained before execution
    };

    std::string id;
    SweepSpec spec; ///< canonical benchmarks
    std::shared_ptr<ServeEngine::Client::State> client;

    std::atomic<bool> cancelled{false};

    /** Serializes every shouldRun consult. The up-front pass is
     *  serial anyway, but at execution time sweep.cc may consult one
     *  cell from two replica workers concurrently (its verdict CAS
     *  arbitrates the answers, not the hook's side effects), so the
     *  per-cell decision must be made once, under this lock, and
     *  then stick. */
    std::mutex execMu;

    // sized ncells before the sweep starts; written only under
    // `execMu` (and read lock-free only after the sweep's workers
    // have joined, or for slots that can no longer change)
    std::vector<Plan> plan;
    std::vector<std::shared_ptr<Flight>> flights;
    std::vector<std::shared_ptr<CellPayload>> cached;

    std::atomic<std::uint64_t> nSim{0}, nShared{0}, nCached{0},
        nCancelled{0};
};

} // namespace

void
ServeEngine::Client::State::hardClose()
{
    // shut the queue down before taking `mu`: a request thread may be
    // blocked inside push() while holding `mu` (handleLine), and the
    // shutdown is what unblocks it
    queue.shutdown();
    std::lock_guard lock(mu);
    noMoreInput = true;
    for (auto &[id, req] : active)
        req->cancelled.store(true, std::memory_order_relaxed);
}

// ------------------------------------------------------------ engine

struct ServeEngine::Impl
{
    Impl(const Options &o) : opts(o), runner(o.jobs) {}

    const Options opts;
    ExperimentRunner runner;

    /** guards `inflight` + the completed-cell LRU + every Flight's
     *  waiter list */
    std::mutex storeMu;
    std::unordered_map<std::string, std::shared_ptr<Flight>> inflight;
    std::list<std::pair<std::string, std::shared_ptr<CellPayload>>>
        lruList; ///< front = most recently used
    std::unordered_map<std::string, decltype(lruList)::iterator>
        lruIndex;

    mutable std::mutex statsMu;
    Stats stats_;

    // ---------------------------------------------- record emission

    void
    emitRaw(const std::shared_ptr<Client::State> &client,
            std::string rec)
    {
        client->queue.push(std::move(rec));
    }

    void
    emitError(const std::shared_ptr<Client::State> &client,
              const std::string &id, const std::string &msg)
    {
        {
            std::lock_guard lock(statsMu);
            stats_.errors++;
        }
        std::ostringstream os;
        os << "{\"id\":"
           << (id.empty() ? std::string("null") : json::quote(id))
           << ",\"event\":\"error\",\"error\":" << json::quote(msg)
           << "}";
        emitRaw(client, os.str());
    }

    static std::string
    cellRecord(const std::shared_ptr<Request> &req, std::size_t index,
               const CellPayload &payload)
    {
        CellCheckpoint ckpt;
        ckpt.index = index;
        ckpt.seeds = payload.seeds;
        ckpt.cell = payload.cell;
        if (payload.hasAgg)
            ckpt.aggregate = payload.agg;
        std::ostringstream os;
        os << "{\"id\":" << json::quote(req->id)
           << ",\"event\":\"cell\",\"checkpoint\":"
           << chomp(toJson(ckpt)) << "}";
        return os.str();
    }

    /** The per-cell record on the request's own stream: checkpoint
     *  payload under the request's id, blocking backpressure (a slow
     *  reader throttles its own work). Skipped when cancelled. */
    void
    emitCell(const std::shared_ptr<Request> &req, std::size_t index,
             const CellPayload &payload)
    {
        if (req->cancelled.load(std::memory_order_relaxed))
            return;
        emitRaw(req->client, cellRecord(req, index, payload));
    }

    /** Fan a shared cell out to a waiter, typically on another
     *  connection: bounded wait, then hard-close — the simulating
     *  worker belongs to a different tenant, and a waiter that has
     *  stopped reading must not park it forever. */
    void
    emitCellToWaiter(const std::shared_ptr<Request> &req,
                     std::size_t index, const CellPayload &payload)
    {
        if (req->cancelled.load(std::memory_order_relaxed))
            return;
        std::string rec = cellRecord(req, index, payload);
        const bool delivered =
            opts.fanoutWaitMs == 0
                ? req->client->queue.push(std::move(rec))
                : req->client->queue.pushFor(
                      std::move(rec),
                      std::chrono::milliseconds(opts.fanoutWaitMs));
        if (!delivered)
            req->client->hardClose();
    }

    // ------------------------------------------------- dedupe store

    /** The canonical identity of one cell: the spec JSON of its own
     *  1×1 sub-grid, jobs forced to 0. Two requests agree on this
     *  string iff the cell is the same simulation. */
    static std::string
    cellIdentity(const SweepSpec &spec, std::size_t cellIdx)
    {
        const std::size_t nb = spec.benchmarks.size();
        SweepSpec one;
        one.benchmarks = {spec.benchmarks[cellIdx % nb]};
        one.techniques = {spec.techniques[cellIdx / nb]};
        one.jobs = 0;
        one.seeds = spec.seeds;
        one.base = spec.base;
        return toJson(one);
    }

    struct Claim
    {
        enum class Kind { Cached, Claimed, Attached } kind;
        std::shared_ptr<CellPayload> payload; ///< Cached only
        std::shared_ptr<Flight> flight;       ///< Claimed/Attached
    };

    Claim
    claimOrAttach(std::string key,
                  const std::shared_ptr<Request> &req,
                  std::size_t index)
    {
        std::lock_guard lock(storeMu);
        if (const auto hit = lruIndex.find(key);
            hit != lruIndex.end()) {
            lruList.splice(lruList.begin(), lruList, hit->second);
            return {Claim::Kind::Cached, hit->second->second, nullptr};
        }
        if (const auto it = inflight.find(key); it != inflight.end()) {
            it->second->waiters.push_back({req, index});
            return {Claim::Kind::Attached, nullptr, it->second};
        }
        auto flight = std::make_shared<Flight>();
        flight->key = std::move(key);
        inflight[flight->key] = flight;
        return {Claim::Kind::Claimed, nullptr, flight};
    }

    /** Publish a finished cell to the store: cache it, detach the
     *  waiters and return them for fan-out. The flight is NOT marked
     *  done yet — the caller emits every waiter's cell record first
     *  and then calls finishFlight(), so no waiter's done record can
     *  overtake its cell record. New requests arriving in between
     *  are answered from the LRU (inserted here, atomically). */
    std::vector<Flight::Waiter>
    publish(const std::shared_ptr<Flight> &flight,
            const CellPayload &payload)
    {
        std::lock_guard lock(storeMu);
        eraseInflight(flight);
        if (opts.resultCacheCap > 0) {
            lruList.emplace_front(
                flight->key, std::make_shared<CellPayload>(payload));
            lruIndex[flight->key] = lruList.begin();
            while (lruList.size() > opts.resultCacheCap) {
                lruIndex.erase(lruList.back().first);
                lruList.pop_back();
            }
        }
        return std::move(flight->waiters);
    }

    /** Wake the flight's waiters with the payload (after fan-out). */
    void
    finishFlight(const std::shared_ptr<Flight> &flight,
                 const CellPayload &payload)
    {
        {
            std::lock_guard lock(flight->mu);
            flight->payload = payload;
            flight->done = true;
        }
        flight->cv.notify_all();
    }

    /** Mark a flight failed (owner errored out, or abandoned on
     *  cancellation); waiters wake and report the error. */
    /** Remove @p flight from the in-flight table iff it is still the
     *  registered one — the key may have been reclaimed by a newer
     *  flight after this one completed. Call with `storeMu` held. */
    void
    eraseInflight(const std::shared_ptr<Flight> &flight)
    {
        const auto it = inflight.find(flight->key);
        if (it != inflight.end() && it->second == flight)
            inflight.erase(it);
    }

    void
    fail(const std::shared_ptr<Flight> &flight,
         const std::string &msg)
    {
        {
            std::lock_guard lock(storeMu);
            eraseInflight(flight);
        }
        {
            std::lock_guard lock(flight->mu);
            if (flight->done)
                return;
            flight->failed = true;
            flight->error = msg;
            flight->done = true;
        }
        flight->cv.notify_all();
    }

    /** On cancellation: drop the claim if nobody is waiting on it.
     *  Returns false — keep simulating — when waiters exist, so a
     *  cancel never steals another tenant's cell. */
    bool
    abandonIfUnwaited(const std::shared_ptr<Flight> &flight)
    {
        {
            std::lock_guard lock(storeMu);
            if (!flight->waiters.empty())
                return false;
            eraseInflight(flight);
        }
        fail(flight, "cancelled before execution");
        return true;
    }

    // -------------------------------------------- request lifecycle

    void
    runRequest(const std::shared_ptr<Request> &req)
    {
        const std::size_t ncells =
            req->spec.benchmarks.size() * req->spec.techniques.size();
        req->plan.assign(ncells, Request::Plan::Undecided);
        req->flights.assign(ncells, nullptr);
        req->cached.assign(ncells, nullptr);

        CellHooks hooks;
        hooks.shouldRun = [this, req](std::size_t i) {
            return shouldRunCell(req, i);
        };
        hooks.onCellDone = [this, req](std::size_t i, const CellKey &,
                                       const RunResult &rep0,
                                       const CellAggregate *agg) {
            CellPayload p;
            p.cell = rep0;
            canonicalize(p.cell);
            if (agg) {
                p.agg = *agg;
                p.hasAgg = true;
                p.seeds = static_cast<int>(agg->n);
            }
            const auto flight = req->flights[i];
            req->nSim.fetch_add(1, std::memory_order_relaxed);
            if (!flight) {
                // defensive: a cell the hook abandoned should never
                // reach onCellDone (the execution-time decision is
                // sticky); if one does, report to our client only
                emitCell(req, i, p);
                return;
            }
            const auto waiters = publish(flight, p);
            emitCell(req, i, p);
            for (const auto &w : waiters)
                emitCellToWaiter(w.req, w.index, p);
            finishFlight(flight, p);
        };

        SweepResult result;
        try {
            result = runner.run(req->spec, hooks);
        } catch (const std::exception &e) {
            // a cell blew up (or a hook did): release anyone waiting
            // on our claims, then report to our own client only
            for (std::size_t i = 0; i < ncells; i++) {
                if ((req->plan[i] == Request::Plan::Simulate ||
                     req->plan[i] == Request::Plan::Running) &&
                    req->flights[i])
                    fail(req->flights[i], e.what());
            }
            emitError(req->client, req->id, e.what());
            finishRequest(req);
            return;
        }

        // collect shared and cached cells into the result matrix;
        // flights always terminate (complete or fail), so these waits
        // are bounded by their owners' progress
        bool sharedFailed = false;
        std::string sharedError;
        for (std::size_t i = 0; i < ncells; i++) {
            if (req->plan[i] == Request::Plan::Wait) {
                const auto &f = req->flights[i];
                std::unique_lock lock(f->mu);
                f->cv.wait(lock, [&] { return f->done; });
                if (f->failed) {
                    sharedFailed = true;
                    sharedError = f->error;
                    continue;
                }
                result.cells[i] = f->payload.cell;
                if (f->payload.hasAgg) {
                    if (result.aggregates.empty())
                        result.aggregates.resize(ncells);
                    result.aggregates[i] = f->payload.agg;
                }
            } else if (req->plan[i] == Request::Plan::Cached) {
                const auto &p = req->cached[i];
                result.cells[i] = p->cell;
                if (p->hasAgg) {
                    if (result.aggregates.empty())
                        result.aggregates.resize(ncells);
                    result.aggregates[i] = p->agg;
                }
            }
        }

        const bool cancelled =
            req->cancelled.load(std::memory_order_relaxed) ||
            req->nCancelled.load(std::memory_order_relaxed) > 0;
        if (sharedFailed && !cancelled) {
            emitError(req->client, req->id,
                      "shared cell failed: " + sharedError);
            finishRequest(req);
            return;
        }

        std::ostringstream os;
        os << "{\"id\":" << json::quote(req->id)
           << ",\"event\":\"done\",\"cells\":" << ncells
           << ",\"cellsSimulated\":" << req->nSim.load()
           << ",\"cellsShared\":" << req->nShared.load()
           << ",\"cellsCached\":" << req->nCached.load()
           << ",\"cellsCancelled\":" << req->nCancelled.load()
           << ",\"cancelled\":" << (cancelled ? "true" : "false");
        if (!cancelled) {
            canonicalize(result);
            std::ostringstream exp;
            writeJson(exp, result);
            os << ",\"export\":" << json::quote(exp.str());
        }
        os << "}";
        emitRaw(req->client, os.str());
        finishRequest(req);
    }

    bool
    shouldRunCell(const std::shared_ptr<Request> &req, std::size_t i)
    {
        // every consult runs under execMu: with seeds > 1 two
        // replica workers can consult the same cell concurrently
        // (sweep.cc's verdict CAS only arbitrates the answers), so
        // the execution-time decision is made exactly once and then
        // sticks — all consults of a cell agree, the CAS can never
        // adopt a minority verdict, and the abandon transition
        // (which fails the flight and drops it) cannot race another
        // worker's read of plan[i]/flights[i]
        std::lock_guard lock(req->execMu);
        switch (req->plan[i]) {
          case Request::Plan::Undecided: {
            // up-front pass: serial, on the request thread, before
            // any worker spawns
            if (req->cancelled.load(std::memory_order_relaxed)) {
                req->plan[i] = Request::Plan::Cancelled;
                req->nCancelled.fetch_add(1,
                                          std::memory_order_relaxed);
                return false;
            }
            Claim c = claimOrAttach(cellIdentity(req->spec, i), req, i);
            switch (c.kind) {
              case Claim::Kind::Cached:
                req->plan[i] = Request::Plan::Cached;
                req->cached[i] = c.payload;
                req->nCached.fetch_add(1, std::memory_order_relaxed);
                emitCell(req, i, *c.payload);
                return false;
              case Claim::Kind::Attached:
                req->plan[i] = Request::Plan::Wait;
                req->flights[i] = c.flight;
                req->nShared.fetch_add(1, std::memory_order_relaxed);
                return false;
              case Claim::Kind::Claimed:
                req->plan[i] = Request::Plan::Simulate;
                req->flights[i] = c.flight;
                return true;
            }
            return true; // unreachable
          }
          case Request::Plan::Simulate:
            break; // first execution-time consult: decide below
          case Request::Plan::Running:
            return true; // decided: a replica already committed
          default:
            return false; // Wait / Cached / Cancelled: never ours
        }
        if (req->cancelled.load(std::memory_order_relaxed) &&
            abandonIfUnwaited(req->flights[i])) {
            req->plan[i] = Request::Plan::Cancelled;
            req->flights[i] = nullptr;
            req->nCancelled.fetch_add(1, std::memory_order_relaxed);
            return false;
        }
        req->plan[i] = Request::Plan::Running;
        return true; // not cancelled, or a waiter needs this cell
    }

    void
    finishRequest(const std::shared_ptr<Request> &req)
    {
        {
            std::lock_guard lock(statsMu);
            stats_.cellsSimulated += req->nSim.load();
            stats_.cellsShared += req->nShared.load();
            stats_.cellsCached += req->nCached.load();
            stats_.cellsCancelled += req->nCancelled.load();
        }
        std::lock_guard lock(req->client->mu);
        // retire this request's own thread handle so the next
        // submitLine joins it; ~Client remains the backstop for the
        // requests still running at disconnect
        auto &ts = req->client->threads;
        for (auto it = ts.begin(); it != ts.end(); ++it) {
            if (it->get_id() == std::this_thread::get_id()) {
                req->client->doneThreads.push_back(std::move(*it));
                ts.erase(it);
                break;
            }
        }
        req->client->active.erase(req->id);
        req->client->maybeFinish();
    }

    // ------------------------------------------------- line parsing

    void
    handleLine(const std::shared_ptr<Client::State> &client,
               const std::string &line)
    {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            return; // blank keep-alive
        if (line.size() > kMaxRequestBytes) {
            emitError(client, "",
                      "request line exceeds " +
                          std::to_string(kMaxRequestBytes) +
                          " bytes");
            return;
        }

        const auto doc = asResult([&] { return json::parse(line); });
        if (!doc) {
            emitError(client, "", doc.error());
            return;
        }
        const json::Value &root = doc.value();
        if (root.kind != json::Value::Kind::Object) {
            emitError(client, "", "request must be a JSON object");
            return;
        }

        if (const json::Value *c = root.find("cancel")) {
            const auto id = asResult([&] { return c->asString(); });
            if (!id) {
                emitError(client, "", "cancel must name a request id");
                return;
            }
            std::lock_guard lock(client->mu);
            const auto it = client->active.find(id.value());
            if (it == client->active.end()) {
                emitError(client, id.value(),
                          "unknown or finished request id");
                return;
            }
            it->second->cancelled.store(true,
                                        std::memory_order_relaxed);
            return; // the request's done record reports cancelled
        }

        const json::Value *idv = root.find("id");
        const auto id = asResult([&] {
            if (idv == nullptr)
                fatal("request is missing \"id\"");
            return idv->asString();
        });
        if (!id) {
            emitError(client, "", id.error());
            return;
        }

        const json::Value *specv = root.find("spec");
        if (specv == nullptr) {
            emitError(client, id.value(),
                      "request is missing \"spec\"");
            return;
        }
        auto spec = trySpecFromJson(*specv);
        if (!spec) {
            emitError(client, id.value(), spec.error());
            return;
        }
        SweepSpec s = std::move(spec).orFatal();
        if (s.benchmarks.empty() || s.techniques.empty()) {
            emitError(client, id.value(),
                      "spec has an empty benchmark or technique axis");
            return;
        }

        auto req = std::make_shared<Request>();
        req->id = id.value();
        req->spec = std::move(s);
        req->client = client;

        std::ostringstream os;
        os << "{\"id\":" << json::quote(req->id)
           << ",\"event\":\"accepted\",\"cells\":"
           << req->spec.benchmarks.size() *
                  req->spec.techniques.size()
           << ",\"seeds\":" << req->spec.seeds << "}";

        // registration, the accepted record, and the thread spawn
        // stay under one lock: hardClose() (which joins via ~Client)
        // can then never miss a just-spawned thread, and no cell
        // record can overtake its request's accepted record
        bool duplicate = false;
        {
            std::lock_guard lock(client->mu);
            if (client->noMoreInput)
                return; // raced with shutdown: drop silently
            if (!client->active.emplace(req->id, req).second) {
                duplicate = true;
            } else {
                {
                    std::lock_guard statsLock(statsMu);
                    stats_.requests++;
                }
                emitRaw(client, os.str());
                client->threads.emplace_back(
                    [this, req] { runRequest(req); });
            }
        }
        if (duplicate)
            emitError(client, req->id, "request id already in flight");
    }

    Stats
    stats() const
    {
        std::lock_guard lock(statsMu);
        return stats_;
    }
};

// ---------------------------------------------------- engine surface

ServeEngine::ServeEngine(const Options &opts)
    : impl(std::make_shared<Impl>(opts))
{
}

ServeEngine::~ServeEngine() = default;

ServeEngine::Client::Client(std::shared_ptr<State> s)
    : state(std::move(s))
{
}

ServeEngine::Client::~Client()
{
    hardClose();
    std::vector<std::thread> threads;
    {
        std::lock_guard lock(state->mu);
        threads = std::move(state->threads);
        for (auto &t : state->doneThreads)
            threads.push_back(std::move(t));
        state->doneThreads.clear();
    }
    for (auto &t : threads)
        t.join();
}

void
ServeEngine::Client::submitLine(const std::string &line)
{
    // reap request threads that finished since the last line so a
    // long-lived connection holds O(in-flight) thread handles, not
    // O(requests ever submitted)
    std::vector<std::thread> done;
    {
        std::lock_guard lock(state->mu);
        done.swap(state->doneThreads);
    }
    for (auto &t : done)
        t.join();
    state->engine->handleLine(state, line);
}

void
ServeEngine::Client::endOfInput()
{
    std::lock_guard lock(state->mu);
    state->noMoreInput = true;
    state->maybeFinish();
}

void
ServeEngine::Client::hardClose()
{
    state->hardClose();
}

bool
ServeEngine::Client::nextRecord(std::string &out)
{
    return state->queue.pop(out);
}

std::shared_ptr<ServeEngine::Client>
ServeEngine::connect()
{
    auto state =
        std::make_shared<Client::State>(impl, impl->opts.queueCap);
    return std::shared_ptr<Client>(new Client(std::move(state)));
}

ServeEngine::Stats
ServeEngine::stats() const
{
    return impl->stats();
}

SweepCacheStats
ServeEngine::cacheStats() const
{
    return impl->runner.cacheStats();
}

// -------------------------------------------------------- transports

void
serveStdio(ServeEngine &engine, std::istream &in, std::ostream &out)
{
    auto client = engine.connect();
    std::thread writer([&] {
        std::string rec;
        while (client->nextRecord(rec))
            out << rec << "\n" << std::flush;
    });
    std::string line;
    while (std::getline(in, line))
        client->submitLine(line);
    client->endOfInput();
    writer.join();
}

namespace
{

/** Serve one accepted connection; owns and closes @p fd. */
void
serveConnection(ServeEngine &engine, int fd)
{
    auto client = engine.connect();
    std::thread writer([&] {
        std::string rec;
        while (client->nextRecord(rec)) {
            rec += '\n';
            std::size_t off = 0;
            while (off < rec.size()) {
                // MSG_NOSIGNAL: a vanished reader must surface as an
                // error here, not as SIGPIPE killing the daemon
                const ssize_t n =
                    ::send(fd, rec.data() + off, rec.size() - off,
                           MSG_NOSIGNAL);
                if (n < 0) {
                    if (errno == EINTR)
                        continue;
                    client->hardClose();
                    return;
                }
                off += static_cast<std::size_t>(n);
            }
        }
    });

    std::string buf;
    char chunk[4096];
    bool overflow = false;
    while (!overflow) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl = buf.find('\n', start);
             nl != std::string::npos; nl = buf.find('\n', start)) {
            client->submitLine(buf.substr(start, nl - start));
            start = nl + 1;
        }
        buf.erase(0, start);
        if (buf.size() > kMaxRequestBytes) {
            // a partial line that can no longer become an acceptable
            // request: cut the connection instead of buffering an
            // unbounded frame (handleLine enforces the same cap on
            // complete lines, with an error record)
            client->hardClose();
            overflow = true;
        }
    }
    if (!overflow && !buf.empty())
        client->submitLine(buf);
    client->endOfInput();
    writer.join();
    ::close(fd);
}

} // namespace

void
serveUnixSocket(ServeEngine &engine, const std::string &path,
                std::ostream *ready)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        fatal("serve: socket path too long: '", path, "'");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("serve: socket(): ", std::strerror(errno));
    ::unlink(path.c_str()); // stale socket from a previous daemon
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        fatal("serve: bind('", path, "'): ", std::strerror(errno));
    }
    if (::listen(fd, 64) != 0)
        fatal("serve: listen(): ", std::strerror(errno));
    if (ready)
        *ready << "listening on " << path << std::endl;

    // finished connection threads park their id here and are joined
    // on the next accept, so the daemon holds O(live connections)
    // thread handles, not O(connections ever served)
    std::list<std::thread> connections;
    std::mutex reapMu;
    std::vector<std::thread::id> finished;
    while (true) {
        const int conn = ::accept(fd, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: accept(): ", std::strerror(errno));
            break;
        }
        std::vector<std::thread::id> ids;
        {
            std::lock_guard lock(reapMu);
            ids.swap(finished);
        }
        for (const auto id : ids) {
            for (auto it = connections.begin();
                 it != connections.end(); ++it) {
                if (it->get_id() == id) {
                    it->join();
                    connections.erase(it);
                    break;
                }
            }
        }
        connections.emplace_back([&engine, &reapMu, &finished,
                                  conn] {
            serveConnection(engine, conn);
            std::lock_guard lock(reapMu);
            finished.push_back(std::this_thread::get_id());
        });
    }
    for (auto &t : connections)
        t.join();
    ::close(fd);
}

} // namespace siq::sim
