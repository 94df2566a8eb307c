// Shared cross-request batched inference (DESIGN.md §15).
//
// The load-bearing claim is BIT-IDENTITY: a row's result never depends on
// which other rows shared its fused batch, on batch_max, on the timeout,
// on how many clients raced, or on whether the forward went through the
// service at all.  These tests pin that end to end — service outputs vs
// private Policy forwards byte for byte, search placements across
// batch_max and worker counts, and the scheduling service across
// --infer-mode — plus the ring's backpressure/close-drain edges and the
// sharded rollout action cache the leaf search shares across workers.

#include "infer/service.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dag/generator.h"
#include "dag/io.h"
#include "mcts/mcts.h"
#include "mcts/policies.h"
#include "mcts/transposition.h"
#include "rl/policy.h"
#include "svc/service.h"

namespace spear {
namespace {

ResourceVector cap() { return ResourceVector{1.0, 1.0}; }

Dag test_dag(std::uint64_t seed, std::size_t tasks = 12) {
  DagGeneratorOptions gen;
  gen.num_tasks = tasks;
  Rng rng(seed);
  return generate_random_dag(gen, rng);
}

std::shared_ptr<const Policy> make_policy(std::uint64_t seed = 5) {
  Rng rng(seed);
  return std::make_shared<const Policy>(
      Policy::make(FeaturizerOptions{}, 2, rng, {16}));
}

/// A spread of distinct scheduling states: initial states of distinct
/// random DAGs (each has its own ready set, so each row differs).
std::vector<SchedulingEnv> make_states(std::size_t n,
                                       std::uint64_t seed = 100) {
  std::vector<SchedulingEnv> states;
  states.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    states.emplace_back(std::make_shared<Dag>(test_dag(seed + i)), cap());
  }
  return states;
}

std::vector<const SchedulingEnv*> pointers(
    const std::vector<SchedulingEnv>& states) {
  std::vector<const SchedulingEnv*> out;
  out.reserve(states.size());
  for (const SchedulingEnv& s : states) out.push_back(&s);
  return out;
}

/// The private reference every service result must match byte for byte.
void reference_forward(const Policy& policy,
                       const std::vector<const SchedulingEnv*>& envs,
                       std::vector<std::vector<bool>>& masks,
                       std::vector<std::vector<double>>& probs) {
  policy.action_probs_batch(envs.data(), envs.size(), masks, probs);
}

void expect_bit_identical(const std::vector<std::vector<double>>& a,
                          const std::vector<std::vector<double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "row " << i;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      // EQ, not NEAR: fused batches must reproduce the exact bits.
      EXPECT_EQ(a[i][j], b[i][j]) << "row " << i << " output " << j;
    }
  }
}

infer::InferenceOptions tight_options(std::size_t batch_max) {
  infer::InferenceOptions options;
  options.batch_max = batch_max;
  options.batch_timeout_us = 50;
  return options;
}

TEST(InferService, MatchesPrivateForwardBitIdentical) {
  const auto policy = make_policy();
  const auto states = make_states(8);
  const auto envs = pointers(states);
  std::vector<std::vector<bool>> want_masks, got_masks;
  std::vector<std::vector<double>> want_probs, got_probs;
  reference_forward(*policy, envs, want_masks, want_probs);

  for (const std::size_t batch_max : {std::size_t{1}, std::size_t{32}}) {
    infer::InferenceService service(policy, tight_options(batch_max));
    service.infer(envs.data(), envs.size(), got_masks, got_probs);
    expect_bit_identical(want_probs, got_probs);
    ASSERT_EQ(want_masks.size(), got_masks.size());
    for (std::size_t i = 0; i < want_masks.size(); ++i) {
      EXPECT_EQ(want_masks[i], got_masks[i]) << "mask " << i;
    }
  }
}

TEST(InferService, SingleRowRequestsMatchToo) {
  const auto policy = make_policy();
  const auto states = make_states(6);
  const auto envs = pointers(states);
  std::vector<std::vector<bool>> want_masks, got_masks;
  std::vector<std::vector<double>> want_probs, got_probs;
  reference_forward(*policy, envs, want_masks, want_probs);

  infer::InferenceService service(policy, tight_options(64));
  for (std::size_t i = 0; i < envs.size(); ++i) {
    const SchedulingEnv* env = envs[i];
    service.infer(&env, 1, got_masks, got_probs);
    ASSERT_EQ(got_probs.size(), 1u);
    for (std::size_t j = 0; j < want_probs[i].size(); ++j) {
      EXPECT_EQ(want_probs[i][j], got_probs[0][j]) << "row " << i;
    }
  }
}

TEST(InferService, ConcurrentClientsAllBitIdentical) {
  const auto policy = make_policy();
  // Per-client disjoint state sets so a cross-wired scatter would be
  // caught by the content check, not just by luck.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRounds = 25;
  std::vector<std::vector<SchedulingEnv>> states;
  std::vector<std::vector<std::vector<double>>> want(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    states.push_back(make_states(3, 200 + 10 * c));
    std::vector<std::vector<bool>> masks;
    reference_forward(*policy, pointers(states[c]), masks, want[c]);
  }

  infer::InferenceService service(policy, tight_options(16));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const auto envs = pointers(states[c]);
      std::vector<std::vector<bool>> masks;
      std::vector<std::vector<double>> probs;
      for (std::size_t round = 0; round < kRounds; ++round) {
        service.infer(envs.data(), envs.size(), masks, probs);
        if (probs.size() != want[c].size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t i = 0; i < probs.size(); ++i) {
          if (probs[i] != want[c][i]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const infer::InferenceStats stats = service.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::int64_t>(kClients * kRounds));
  EXPECT_EQ(stats.rows, static_cast<std::int64_t>(kClients * kRounds * 3));
  EXPECT_GT(stats.forwards, 0);
  // Every batch closed for exactly one recorded reason.
  EXPECT_EQ(stats.full_closes + stats.timeout_closes + stats.client_closes +
                stats.drain_closes,
            stats.forwards);
}

TEST(InferRing, TinyCapacityBackpressesWithoutLossOrDeadlock) {
  const auto policy = make_policy();
  infer::InferenceOptions options = tight_options(4);
  options.queue_capacity = 1;  // every second enqueue must block
  infer::InferenceService service(policy, options);

  const auto states = make_states(2);
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      const SchedulingEnv* env = &states[static_cast<std::size_t>(c) % 2];
      std::vector<std::vector<bool>> masks;
      std::vector<std::vector<double>> probs;
      for (int round = 0; round < 50; ++round) {
        service.infer(&env, 1, masks, probs);
        ++completed;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(completed.load(), 200);
  EXPECT_EQ(service.stats().requests, 200);
}

TEST(InferRing, ShutdownDrainsEveryAcceptedRequest) {
  const auto policy = make_policy();
  infer::InferenceOptions options = tight_options(8);
  options.queue_capacity = 2;
  auto service =
      std::make_unique<infer::InferenceService>(policy, options);

  const auto states = make_states(2);
  std::atomic<int> completed{0};
  std::atomic<int> refused{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      const SchedulingEnv* env = &states[static_cast<std::size_t>(c) % 2];
      std::vector<std::vector<bool>> masks;
      std::vector<std::vector<double>> probs;
      for (int round = 0; round < 50; ++round) {
        try {
          service->infer(&env, 1, masks, probs);
          ++completed;
        } catch (const std::runtime_error&) {
          ++refused;  // enqueue observed the closed ring
        }
      }
    });
  }
  // Race shutdown against the in-flight clients: accepted requests must
  // still complete (drain), later ones must throw — nothing may hang.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  service->shutdown();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(completed.load() + refused.load(), 200);
  EXPECT_EQ(service->stats().requests, completed.load());
  EXPECT_THROW(
      {
        const SchedulingEnv* env = &states[0];
        std::vector<std::vector<bool>> masks;
        std::vector<std::vector<double>> probs;
        service->infer(&env, 1, masks, probs);
      },
      std::runtime_error);
}

TEST(InferService, SwapPolicyAffectsLaterForwards) {
  const auto policy_a = make_policy(5);
  const auto policy_b = make_policy(6);
  const auto states = make_states(4);
  const auto envs = pointers(states);
  std::vector<std::vector<bool>> masks;
  std::vector<std::vector<double>> want_a, want_b, got;
  reference_forward(*policy_a, envs, masks, want_a);
  reference_forward(*policy_b, envs, masks, want_b);

  infer::InferenceService service(policy_a, tight_options(16));
  service.infer(envs.data(), envs.size(), masks, got);
  expect_bit_identical(want_a, got);

  service.swap_policy(policy_b);
  EXPECT_EQ(service.policy().get(), policy_b.get());
  service.infer(envs.data(), envs.size(), masks, got);
  expect_bit_identical(want_b, got);
}

TEST(InferService, HistPercentileNearestRank) {
  EXPECT_EQ(infer::hist_percentile({}, 50.0), 0.0);
  EXPECT_EQ(infer::hist_percentile({0, 0, 0}, 99.0), 0.0);
  // 10 forwards of width 1: every percentile is 1.
  std::vector<std::int64_t> hist(5, 0);
  hist[1] = 10;
  EXPECT_EQ(infer::hist_percentile(hist, 50.0), 1.0);
  EXPECT_EQ(infer::hist_percentile(hist, 99.0), 1.0);
  // 9 of width 1, 1 of width 4: p50 = 1, p99 lands on the wide one.
  hist[4] = 1;
  hist[1] = 9;
  EXPECT_EQ(infer::hist_percentile(hist, 50.0), 1.0);
  EXPECT_EQ(infer::hist_percentile(hist, 99.0), 4.0);
}

TEST(InferBatch, LeafPlacementsInvariantToBatchMaxAndWorkers) {
  // The batching-determinism contract at the search level: the SAME leaf
  // search, with forwards routed through the shared service, must place
  // byte-identically whether batches fuse 1 row or 32, and however many
  // worker threads race rows into the ring — and both must equal the
  // private-forward reference.
  const auto policy = make_policy();
  const Dag dag = test_dag(31, 16);
  MctsOptions options;
  options.initial_budget = 48;
  options.min_budget = 16;
  options.search_mode = SearchMode::kLeaf;
  options.seed = 77;

  options.num_threads = 1;
  MctsScheduler reference_mcts(
      options, std::make_shared<DrlDecisionPolicy>(policy, /*greedy=*/true));
  const auto reference = reference_mcts.schedule(dag, cap()).placements();

  for (const std::size_t batch_max : {std::size_t{1}, std::size_t{32}}) {
    for (const int threads : {1, 2, 4}) {
      auto service = std::make_shared<infer::InferenceService>(
          policy, tight_options(batch_max));
      options.num_threads = threads;
      MctsScheduler mcts(options, std::make_shared<DrlDecisionPolicy>(
                                      policy, /*greedy=*/true, service));
      const auto got = mcts.schedule(dag, cap()).placements();
      ASSERT_EQ(reference.size(), got.size())
          << "batch_max " << batch_max << " threads " << threads;
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(reference[i].task, got[i].task)
            << "batch_max " << batch_max << " threads " << threads;
        EXPECT_EQ(reference[i].start, got[i].start)
            << "batch_max " << batch_max << " threads " << threads;
      }
      service->shutdown();
    }
  }
}

TEST(SvcSharedInference, ServicePlacementsMatchPrivateMode) {
  // One worker, synchronous submits: which worker serves each job is
  // pinned, so --infer-mode must be unobservable in the results.
  const auto policy = make_policy();
  const Dag dag = test_dag(41, 10);
  const std::string dag_text = dag_to_text(dag);

  const auto run = [&](svc::InferMode mode) {
    svc::ServiceOptions options;
    options.workers = 1;
    options.search_iterations = 32;
    options.min_iterations = 8;
    options.policy = policy;
    options.infer_mode = mode;
    options.infer.batch_max = 16;
    options.infer.batch_timeout_us = 50;
    svc::SchedulerService service(options);
    service.start();
    std::vector<svc::SubmitResult> results;
    for (int j = 0; j < 3; ++j) {
      svc::SubmitRequest request;
      request.id = "job" + std::to_string(j);
      request.dag_text = dag_text;
      std::mutex m;
      std::condition_variable cv;
      bool done = false;
      service.submit(request, [&](bool ok, const svc::SubmitResult& result,
                                  const svc::Rejection&) {
        ASSERT_TRUE(ok);
        std::lock_guard<std::mutex> lock(m);
        results.push_back(result);
        done = true;
        cv.notify_one();
      });
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return done; });
    }
    const svc::ServiceCounters counters = service.counters();
    const infer::InferenceService* infer_service = service.infer_service();
    service.shutdown();
    return std::make_tuple(results, counters,
                           infer_service ? infer_service->stats()
                                         : infer::InferenceStats{});
  };

  const auto [private_results, private_counters, private_infer] =
      run(svc::InferMode::kPrivate);
  const auto [shared_results, shared_counters, shared_infer] =
      run(svc::InferMode::kShared);

  ASSERT_EQ(private_results.size(), shared_results.size());
  for (std::size_t j = 0; j < private_results.size(); ++j) {
    EXPECT_EQ(private_results[j].makespan, shared_results[j].makespan);
    EXPECT_EQ(private_results[j].placements, shared_results[j].placements);
  }
  // The physical-forward ledgers swap roles between modes: private counts
  // guide kernels, shared counts the service's fused batches.
  EXPECT_GT(private_counters.search_forwards, 0);
  EXPECT_EQ(private_infer.forwards, 0);
  EXPECT_EQ(shared_counters.search_forwards, 0);
  EXPECT_GT(shared_infer.forwards, 0);
  // Identical logical work: the rows the private guides forwarded are
  // exactly the rows the shared service scored.
  EXPECT_EQ(private_counters.search_forward_rows, shared_infer.rows);
}

TEST(InferSharedActionCache, FindInsertAcrossShards) {
  SharedActionCache cache(64, 4);
  EXPECT_EQ(cache.size(), 0u);
  for (std::uint64_t k = 0; k < 40; ++k) {
    cache.insert({k, k + 1}, static_cast<int>(k));
  }
  EXPECT_EQ(cache.size(), 40u);
  int action = -1;
  for (std::uint64_t k = 0; k < 40; ++k) {
    ASSERT_TRUE(cache.find({k, k + 1}, &action)) << "key " << k;
    EXPECT_EQ(action, static_cast<int>(k));
  }
  EXPECT_FALSE(cache.find({999, 1000}, &action));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.find({1, 2}, &action));
}

TEST(InferSharedActionCache, DuplicateInsertKeepsFirst) {
  SharedActionCache cache(16, 2);
  cache.insert({7, 7}, 1);
  cache.insert({7, 7}, 2);
  int action = -1;
  ASSERT_TRUE(cache.find({7, 7}, &action));
  EXPECT_EQ(action, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(InferSharedActionCache, BoundedByCapacityWithFifoEviction) {
  // 8 entries over 2 shards = 4 per shard; overfilling evicts the oldest
  // per shard, never growing past the per-shard cap.
  SharedActionCache cache(8, 2);
  for (std::uint64_t k = 0; k < 100; ++k) {
    cache.insert({k}, static_cast<int>(k));
  }
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GT(cache.size(), 0u);

  // One shard (a guide's private rollout cache): eviction is exactly
  // oldest-first across every key.
  SharedActionCache single(2, 1);
  single.insert({1}, 10);
  single.insert({2}, 20);
  single.insert({3}, 30);  // evicts key {1}
  EXPECT_EQ(single.size(), 2u);
  int action = -1;
  EXPECT_FALSE(single.find({1}, &action));
  ASSERT_TRUE(single.find({2}, &action));
  EXPECT_EQ(action, 20);
  ASSERT_TRUE(single.find({3}, &action));
  EXPECT_EQ(action, 30);
}

TEST(InferSharedActionCache, ZeroCapacityDisables) {
  SharedActionCache cache(0);
  cache.insert({1}, 1);
  int action = -1;
  EXPECT_FALSE(cache.find({1}, &action));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(InferSharedActionCache, ConcurrentMixedUseIsSafe) {
  SharedActionCache cache(256, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      int action = -1;
      for (std::uint64_t k = 0; k < 500; ++k) {
        const SharedActionCache::Key key{k % 64, static_cast<std::uint64_t>(t % 2)};
        if (cache.find(key, &action)) {
          // Values are keyed deterministically, so a hit must agree.
          EXPECT_EQ(action, static_cast<int>((k % 64) ^ static_cast<std::uint64_t>(t % 2)));
        } else {
          cache.insert(key, static_cast<int>((k % 64) ^ static_cast<std::uint64_t>(t % 2)));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace spear
