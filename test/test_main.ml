let () =
  Alcotest.run "pmods"
    (Test_simkit.suite @ Test_sim_order.suite @ Test_servernet.suite @ Test_diskio.suite @ Test_nsk.suite
   @ Test_pm.suite @ Test_pm_ext.suite @ Test_pm_index.suite @ Test_pm_kv.suite @ Test_btree.suite @ Test_tp.suite @ Test_tp_components.suite @ Test_entity.suite @ Test_workloads.suite @ Test_properties.suite @ Test_edges.suite @ Test_edges2.suite @ Test_obs.suite @ Test_timeseries.suite @ Test_integrity.suite @ Test_prof.suite @ Test_grayfail.suite @ Test_critpath.suite
   @ Test_overload.suite @ Test_explorer.suite @ Test_drill.suite)
