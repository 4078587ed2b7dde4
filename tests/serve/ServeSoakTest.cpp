//===- tests/serve/ServeSoakTest.cpp --------------------------------------===//
//
// The ISSUE's soak/property harness: 5,000 randomized requests from four
// concurrent clients against one daemon instance — valid chains under
// random knobs, parser-fuzz mutations of those chains, malformed frames,
// and mid-request disconnects. Properties checked throughout:
//
//   1. Zero crashes or restarts: one Server lives end to end and still
//      answers a ping after the storm.
//   2. Every byte the server emits is one valid Status-or-response JSON
//      line; garbage in never produces garbage out.
//   3. Warm results are bit-identical to cold: the first result_fnv seen
//      for a (chain, script, size, widen, harden) key is the contract for
//      every later request with that key, across threads, batching, and
//      kernel modes.
//   4. The cache ledger balances: hits + misses == admitted.
//
// Everything is seeded, so a failure reproduces from its request index.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "ServeTestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace lcdfg;
using namespace lcdfg::serve;
using namespace serve_test;
using support::JsonValue;
using support::parseJson;

namespace {

const char *Corpus[] = {Fig1Chain, Chain3D, Chain1D};

/// The parser fuzz suite's mutator, verbatim in spirit: byte- and
/// token-level damage that stays deterministic under a shared seed.
std::string mutate(std::string Text, std::mt19937_64 &Rng) {
  if (Text.empty())
    return Text;
  auto At = [&](std::size_t Bound) { return Rng() % Bound; };
  const char Alphabet[] = "(){}:,+-\\ abcxyzNSW0189_#";
  switch (At(7)) {
  case 0: // Flip one byte.
    Text[At(Text.size())] = Alphabet[At(sizeof(Alphabet) - 1)];
    break;
  case 1: { // Delete a span.
    std::size_t Pos = At(Text.size());
    Text.erase(Pos, std::min<std::size_t>(1 + At(8), Text.size() - Pos));
    break;
  }
  case 2: // Insert noise.
    Text.insert(At(Text.size()),
                std::string(1 + At(4), Alphabet[At(sizeof(Alphabet) - 1)]));
    break;
  case 3: // Truncate.
    Text.resize(At(Text.size()));
    break;
  case 4: { // Duplicate a span.
    std::size_t Pos = At(Text.size());
    std::string Dup = Text.substr(
        Pos, std::min<std::size_t>(1 + At(24), Text.size() - Pos));
    Text.insert(Pos, Dup);
    break;
  }
  case 5: { // Swap two bytes.
    std::size_t A = At(Text.size()), B = At(Text.size());
    std::swap(Text[A], Text[B]);
    break;
  }
  case 6: // Splice two corpus entries.
    Text = Text.substr(0, At(Text.size())) +
           std::string(Corpus[At(std::size(Corpus))]);
    break;
  }
  return Text;
}

/// Identity ledger: first fnv per semantic key wins, later ones must
/// match bit for bit. Knobs that may not change results (threads,
/// batched, kernels, cache bypass) are deliberately NOT part of the key —
/// that is the property under test.
class FnvLedger {
public:
  /// Returns false (and fills Prev) on a mismatch.
  bool record(const std::string &Key, const std::string &Fnv,
              std::string *Prev) {
    std::lock_guard<std::mutex> L(Mu);
    auto [It, Inserted] = Map.emplace(Key, Fnv);
    if (!Inserted && It->second != Fnv) {
      *Prev = It->second;
      return false;
    }
    return true;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> L(Mu);
    return Map.size();
  }

private:
  mutable std::mutex Mu;
  std::map<std::string, std::string> Map;
};

struct SoakTally {
  std::atomic<long> Ok{0};
  std::atomic<long> StructuredErrors{0};
  std::atomic<long> GarbageFrames{0};
  std::atomic<long> Disconnects{0};
  std::atomic<long> TransportRetries{0};
  std::atomic<long> Failures{0};
};

constexpr int SoakRequests = 5000;
constexpr int SoakClients = 4;

void soakWorker(unsigned ThreadId, const ServerOptions &Opts,
                std::atomic<int> &Next, FnvLedger &Ledger, SoakTally &T) {
  std::mt19937_64 Rng(0x50a4u * 2654435761u + ThreadId);
  auto Draw = [&](std::size_t Bound) { return Rng() % Bound; };

  auto Conn = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(Conn)) << Conn.error().toString();

  auto Reconnect = [&]() -> bool {
    auto C = Client::connectUnix(Opts.UnixPath);
    if (!C)
      return false;
    *Conn = std::move(*C);
    return true;
  };

  for (int I = Next.fetch_add(1); I < SoakRequests; I = Next.fetch_add(1)) {
    unsigned Category = Draw(100);

    if (Category < 10) {
      // Malformed frame on a throwaway connection: whatever we send, the
      // one line that may come back must be valid JSON carrying ok:false.
      auto C = Client::connectUnix(Opts.UnixPath);
      if (!C)
        continue;
      std::string Frame;
      if (Draw(2) == 0) {
        Frame = RequestBuilder{}.line();
        unsigned Rounds = 1 + Draw(3);
        for (unsigned R = 0; R < Rounds; ++R)
          Frame = mutate(std::move(Frame), Rng);
        // The mutator can splice in raw newlines; keep this a single
        // frame so exactly one response is expected.
        for (char &Ch : Frame)
          if (Ch == '\n')
            Ch = ' ';
      } else {
        Frame.assign(1 + Draw(64), "(){:,\\\"x9#"[Draw(10)]);
      }
      ++T.GarbageFrames;
      if (!C->sendLine(Frame).isOk())
        continue;
      auto Line = C->recvLine(10000);
      if (!Line)
        continue; // Server may legitimately close on hostile input.
      auto V = parseJson(*Line);
      EXPECT_TRUE(bool(V)) << "req " << I << ": unparsable response to "
                           << "garbage frame: " << *Line;
      if (V && !V->find("ok")->asBool(true))
        ++T.StructuredErrors;
      continue;
    }

    if (Category < 20) {
      // Mid-request disconnect: half a frame, then an abrupt close, on a
      // throwaway connection so the shared one stays in sync.
      auto C = Client::connectUnix(Opts.UnixPath);
      if (!C)
        continue;
      std::string Line = RequestBuilder{}.line();
      (void)C->sendRaw(std::string_view(Line).substr(0, 1 + Draw(Line.size())));
      C->closeNow();
      ++T.Disconnects;
      continue;
    }

    // A run request: clean corpus chain (most of the time) or a mutated
    // variant (which may parse — those still join the identity ledger).
    RequestBuilder B;
    std::size_t Pick = Draw(std::size(Corpus));
    B.Chain = Corpus[Pick];
    bool Mutated = Category < 45;
    if (Mutated) {
      unsigned Rounds = 1 + Draw(3);
      for (unsigned R = 0; R < Rounds; ++R)
        B.Chain = mutate(std::move(B.Chain), Rng);
    }
    if (Pick == 0 && Draw(2) == 0)
      B.Script = Fig1Script;
    static const std::int64_t Sizes[] = {4, 6, 8, 12, 16};
    B.Size = Sizes[Draw(std::size(Sizes))];
    B.Widen = Draw(3) == 0 ? 1 : 0;
    B.Threads = static_cast<std::int64_t>(Draw(3)); // 0 = library default.
    B.Kernels = Draw(2) ? "jit" : "interp";
    B.Batched = static_cast<int>(Draw(2));
    B.Harden = Draw(4) == 0 ? 1 : 0;
    B.Cache = Draw(8) == 0 ? 0 : -1; // Occasional explicit bypass.
    B.Checksum = 1;
    B.Id = "soak-" + std::to_string(I);

    auto R = Conn->request(B.line(), 60000);
    if (!R) {
      // Transport-level failure: reconnect once and retry the request.
      ++T.TransportRetries;
      if (!Reconnect()) {
        ++T.Failures;
        ADD_FAILURE() << "req " << I << ": reconnect failed after "
                      << R.error().toString();
        continue;
      }
      R = Conn->request(B.line(), 60000);
      if (!R) {
        ++T.Failures;
        ADD_FAILURE() << "req " << I
                      << ": failed twice: " << R.error().toString();
        continue;
      }
    }

    const JsonValue *OkField = R->find("ok");
    ASSERT_NE(OkField, nullptr) << "req " << I;
    const JsonValue *IdField = R->find("id");
    ASSERT_NE(IdField, nullptr) << "req " << I;
    EXPECT_EQ(IdField->asString(), B.Id) << "req " << I;
    if (!OkField->asBool()) {
      // Structured per-request failure; the status must carry an E-code.
      const JsonValue *St = R->find("status");
      ASSERT_NE(St, nullptr) << "req " << I;
      EXPECT_EQ(St->find("code")->asString().substr(0, 1), "E")
          << "req " << I;
      ++T.StructuredErrors;
      continue;
    }

    ++T.Ok;
    std::string Fnv = R->find("result_fnv")->asString();
    EXPECT_EQ(Fnv.size(), 16u) << "req " << I;
    std::string Key = B.Chain + "\x01" + B.Script + "\x01" +
                      std::to_string(B.Size) + "\x01" +
                      std::to_string(B.Widen) + "\x01" +
                      std::to_string(B.Harden);
    std::string Prev;
    if (!Ledger.record(Key, Fnv, &Prev)) {
      ++T.Failures;
      ADD_FAILURE() << "req " << I << ": warm result " << Fnv
                    << " diverged from cold result " << Prev
                    << " (size=" << B.Size << " widen=" << B.Widen
                    << " threads=" << B.Threads
                    << " kernels=" << B.Kernels << " batched=" << B.Batched
                    << ")";
    }
  }
}

TEST(ServeSoak, FiveThousandRandomizedRequestsKeepEveryInvariant) {
  ServerOptions Opts;
  Opts.UnixPath = uniqueSocketPath("soak");
  Opts.CacheCapacity = 48; // Small enough that the soak exercises LRU.
  Server Srv(Opts);
  ASSERT_TRUE(Srv.start().isOk());

  std::atomic<int> Next{0};
  FnvLedger Ledger;
  SoakTally T;
  std::vector<std::thread> Ts;
  for (unsigned C = 0; C < SoakClients; ++C)
    Ts.emplace_back(soakWorker, C, std::cref(Opts), std::ref(Next),
                    std::ref(Ledger), std::ref(T));
  for (std::thread &Th : Ts)
    Th.join();

  // Property 1: the daemon survived — same instance, still answering.
  auto C = Client::connectUnix(Opts.UnixPath);
  ASSERT_TRUE(bool(C));
  auto Ping = C->request("{\"cmd\":\"ping\"}");
  ASSERT_TRUE(bool(Ping)) << Ping.error().toString();
  EXPECT_TRUE(Ping->find("ok")->asBool());

  // Property 4: the cache ledger balances exactly.
  ServerStats S = Srv.stats();
  EXPECT_EQ(S.Hits + S.Misses, S.Admitted);
  EXPECT_LE(S.Entries, static_cast<std::uint64_t>(Opts.CacheCapacity));

  // The storm must have exercised every lane, or the soak proves little.
  EXPECT_EQ(T.Failures.load(), 0);
  EXPECT_GT(T.Ok.load(), 1000);
  EXPECT_GT(T.StructuredErrors.load(), 50);
  EXPECT_GT(T.GarbageFrames.load(), 100);
  EXPECT_GT(T.Disconnects.load(), 100);
  EXPECT_GT(S.Hits, 0u);
  EXPECT_GT(S.Misses, 0u);
  EXPECT_GT(Ledger.size(), 10u);

  Srv.stop();
  ::testing::Test::RecordProperty("soak_ok", static_cast<int>(T.Ok.load()));
  ::testing::Test::RecordProperty("soak_errors",
                                  static_cast<int>(T.StructuredErrors.load()));
}

} // namespace
