-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'median3'
-- data path: 16 nodes (6 soft, 10 hard), 1 pipeline stages
-- netlist: 21 cells, 0 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_node1 is
  port (
    v0_A0 : in signed(11 downto 0);
    v1_A1 : in signed(11 downto 0);
    v3_t_out : out unsigned(0 downto 0)
  );
end entity median3_dp_node1;

architecture rtl of median3_dp_node1 is
  signal v3_t : unsigned(0 downto 0);
begin
  v3_t <= "1" when resize(v0_A0, 13) > resize(v1_A1, 13) else "0";
  v3_t_out <= v3_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_node2 is
  port (
    v0_A0 : in signed(11 downto 0);
    v2_A2 : in signed(11 downto 0);
    v4_t_out : out unsigned(0 downto 0)
  );
end entity median3_dp_node2;

architecture rtl of median3_dp_node2 is
  signal v4_t : unsigned(0 downto 0);
begin
  v4_t <= "1" when resize(v0_A0, 13) > resize(v2_A2, 13) else "0";
  v4_t_out <= v4_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_node3 is
  port (
    v1_A1 : in signed(11 downto 0);
    v2_A2 : in signed(11 downto 0);
    v5_t_out : out unsigned(0 downto 0)
  );
end entity median3_dp_node3;

architecture rtl of median3_dp_node3 is
  signal v5_t : unsigned(0 downto 0);
begin
  v5_t <= "1" when resize(v1_A1, 13) > resize(v2_A2, 13) else "0";
  v5_t_out <= v5_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_mux_bb15 is
  port (
    v21_A1_pipe : in signed(11 downto 0);
    v22_A2_pipe : in signed(11 downto 0);
    v23_pipe : in unsigned(0 downto 0);
    v6_m_9_out : out signed(11 downto 0)
  );
end entity median3_dp_mux_bb15;

architecture rtl of median3_dp_mux_bb15 is
  signal v6_m_9 : signed(11 downto 0);
begin
  v6_m_9 <= v22_A2_pipe when v23_pipe = 1 else v21_A1_pipe;
  v6_m_9_out <= v6_m_9;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_mux_bb12 is
  port (
    v6_m_9 : in signed(11 downto 0);
    v19_A0_pipe : in signed(11 downto 0);
    v20_pipe : in unsigned(0 downto 0);
    v7_m_10_out : out signed(11 downto 0)
  );
end entity median3_dp_mux_bb12;

architecture rtl of median3_dp_mux_bb12 is
  signal v7_m_10 : signed(11 downto 0);
begin
  v7_m_10 <= v19_A0_pipe when v20_pipe = 1 else v6_m_9;
  v7_m_10_out <= v7_m_10;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_node6 is
  port (
    v1_A1 : in signed(11 downto 0);
    v2_A2 : in signed(11 downto 0);
    v8_t_out : out unsigned(0 downto 0)
  );
end entity median3_dp_node6;

architecture rtl of median3_dp_node6 is
  signal v8_t : unsigned(0 downto 0);
begin
  v8_t <= "1" when resize(v1_A1, 13) > resize(v2_A2, 13) else "0";
  v8_t_out <= v8_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_node7 is
  port (
    v0_A0 : in signed(11 downto 0);
    v2_A2 : in signed(11 downto 0);
    v9_t_out : out unsigned(0 downto 0)
  );
end entity median3_dp_node7;

architecture rtl of median3_dp_node7 is
  signal v9_t : unsigned(0 downto 0);
begin
  v9_t <= "1" when resize(v0_A0, 13) > resize(v2_A2, 13) else "0";
  v9_t_out <= v9_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_mux_bb9 is
  port (
    v16_A0_pipe : in signed(11 downto 0);
    v17_A2_pipe : in signed(11 downto 0);
    v18_pipe : in unsigned(0 downto 0);
    v10_m_4_out : out signed(11 downto 0)
  );
end entity median3_dp_mux_bb9;

architecture rtl of median3_dp_mux_bb9 is
  signal v10_m_4 : signed(11 downto 0);
begin
  v10_m_4 <= v17_A2_pipe when v18_pipe = 1 else v16_A0_pipe;
  v10_m_4_out <= v10_m_4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_mux_bb6 is
  port (
    v10_m_4 : in signed(11 downto 0);
    v14_A1_pipe : in signed(11 downto 0);
    v15_pipe : in unsigned(0 downto 0);
    v11_m_5_out : out signed(11 downto 0)
  );
end entity median3_dp_mux_bb6;

architecture rtl of median3_dp_mux_bb6 is
  signal v11_m_5 : signed(11 downto 0);
begin
  v11_m_5 <= v14_A1_pipe when v15_pipe = 1 else v10_m_4;
  v11_m_5_out <= v11_m_5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_mux_bb3 is
  port (
    v7_m_10 : in signed(11 downto 0);
    v11_m_5 : in signed(11 downto 0);
    v13_pipe : in unsigned(0 downto 0);
    v12_m_11_out : out signed(11 downto 0)
  );
end entity median3_dp_mux_bb3;

architecture rtl of median3_dp_mux_bb3 is
  signal v12_m_11 : signed(11 downto 0);
begin
  v12_m_11 <= v11_m_5 when v13_pipe = 1 else v7_m_10;
  v12_m_11_out <= v12_m_11;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_node11 is
  port (
  );
end entity median3_dp_node11;

architecture rtl of median3_dp_node11 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_pipe_bb3 is
  port (
    v3_t : in unsigned(0 downto 0);
    v13_pipe_out : out unsigned(0 downto 0)
  );
end entity median3_dp_pipe_bb3;

architecture rtl of median3_dp_pipe_bb3 is
  signal v13_pipe : unsigned(0 downto 0);
begin
  v13_pipe <= v3_t;
  v13_pipe_out <= v13_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_pipe_bb6 is
  port (
    v1_A1 : in signed(11 downto 0);
    v8_t : in unsigned(0 downto 0);
    v14_A1_pipe_out : out signed(11 downto 0);
    v15_pipe_out : out unsigned(0 downto 0)
  );
end entity median3_dp_pipe_bb6;

architecture rtl of median3_dp_pipe_bb6 is
  signal v14_A1_pipe : signed(11 downto 0);
  signal v15_pipe : unsigned(0 downto 0);
begin
  v14_A1_pipe <= v1_A1;
  v15_pipe <= v8_t;
  v14_A1_pipe_out <= v14_A1_pipe;
  v15_pipe_out <= v15_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_pipe_bb9 is
  port (
    v0_A0 : in signed(11 downto 0);
    v2_A2 : in signed(11 downto 0);
    v9_t : in unsigned(0 downto 0);
    v16_A0_pipe_out : out signed(11 downto 0);
    v17_A2_pipe_out : out signed(11 downto 0);
    v18_pipe_out : out unsigned(0 downto 0)
  );
end entity median3_dp_pipe_bb9;

architecture rtl of median3_dp_pipe_bb9 is
  signal v16_A0_pipe : signed(11 downto 0);
  signal v17_A2_pipe : signed(11 downto 0);
  signal v18_pipe : unsigned(0 downto 0);
begin
  v16_A0_pipe <= v0_A0;
  v17_A2_pipe <= v2_A2;
  v18_pipe <= v9_t;
  v16_A0_pipe_out <= v16_A0_pipe;
  v17_A2_pipe_out <= v17_A2_pipe;
  v18_pipe_out <= v18_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_pipe_bb12 is
  port (
    v0_A0 : in signed(11 downto 0);
    v4_t : in unsigned(0 downto 0);
    v19_A0_pipe_out : out signed(11 downto 0);
    v20_pipe_out : out unsigned(0 downto 0)
  );
end entity median3_dp_pipe_bb12;

architecture rtl of median3_dp_pipe_bb12 is
  signal v19_A0_pipe : signed(11 downto 0);
  signal v20_pipe : unsigned(0 downto 0);
begin
  v19_A0_pipe <= v0_A0;
  v20_pipe <= v4_t;
  v19_A0_pipe_out <= v19_A0_pipe;
  v20_pipe_out <= v20_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_pipe_bb15 is
  port (
    v1_A1 : in signed(11 downto 0);
    v2_A2 : in signed(11 downto 0);
    v5_t : in unsigned(0 downto 0);
    v21_A1_pipe_out : out signed(11 downto 0);
    v22_A2_pipe_out : out signed(11 downto 0);
    v23_pipe_out : out unsigned(0 downto 0)
  );
end entity median3_dp_pipe_bb15;

architecture rtl of median3_dp_pipe_bb15 is
  signal v21_A1_pipe : signed(11 downto 0);
  signal v22_A2_pipe : signed(11 downto 0);
  signal v23_pipe : unsigned(0 downto 0);
begin
  v21_A1_pipe <= v1_A1;
  v22_A2_pipe <= v2_A2;
  v23_pipe <= v5_t;
  v21_A1_pipe_out <= v21_A1_pipe;
  v22_A2_pipe_out <= v22_A2_pipe;
  v23_pipe_out <= v23_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(11 downto 0);
    A1 : in signed(11 downto 0);
    A2 : in signed(11 downto 0);
    M_o0 : out signed(11 downto 0)
  );
end entity median3_dp;

architecture rtl of median3_dp is
  signal v3_t : unsigned(0 downto 0);
  signal v4_t : unsigned(0 downto 0);
  signal v5_t : unsigned(0 downto 0);
  signal v6_m_9 : signed(11 downto 0);
  signal v7_m_10 : signed(11 downto 0);
  signal v8_t : unsigned(0 downto 0);
  signal v9_t : unsigned(0 downto 0);
  signal v10_m_4 : signed(11 downto 0);
  signal v11_m_5 : signed(11 downto 0);
  signal v12_m_11 : signed(11 downto 0);
  signal v13_pipe : unsigned(0 downto 0);
  signal v14_A1_pipe : signed(11 downto 0);
  signal v15_pipe : unsigned(0 downto 0);
  signal v16_A0_pipe : signed(11 downto 0);
  signal v17_A2_pipe : signed(11 downto 0);
  signal v18_pipe : unsigned(0 downto 0);
  signal v19_A0_pipe : signed(11 downto 0);
  signal v20_pipe : unsigned(0 downto 0);
  signal v21_A1_pipe : signed(11 downto 0);
  signal v22_A2_pipe : signed(11 downto 0);
  signal v23_pipe : unsigned(0 downto 0);
begin
  u_node1 : entity work.median3_dp_node1
    port map (v0_A0 => A0, v1_A1 => A1, v3_t_out => v3_t);
  u_node2 : entity work.median3_dp_node2
    port map (v0_A0 => A0, v2_A2 => A2, v4_t_out => v4_t);
  u_node3 : entity work.median3_dp_node3
    port map (v1_A1 => A1, v2_A2 => A2, v5_t_out => v5_t);
  u_mux_bb15 : entity work.median3_dp_mux_bb15
    port map (v21_A1_pipe => v21_A1_pipe, v22_A2_pipe => v22_A2_pipe, v23_pipe => v23_pipe, v6_m_9_out => v6_m_9);
  u_mux_bb12 : entity work.median3_dp_mux_bb12
    port map (v6_m_9 => v6_m_9, v19_A0_pipe => v19_A0_pipe, v20_pipe => v20_pipe, v7_m_10_out => v7_m_10);
  u_node6 : entity work.median3_dp_node6
    port map (v1_A1 => A1, v2_A2 => A2, v8_t_out => v8_t);
  u_node7 : entity work.median3_dp_node7
    port map (v0_A0 => A0, v2_A2 => A2, v9_t_out => v9_t);
  u_mux_bb9 : entity work.median3_dp_mux_bb9
    port map (v16_A0_pipe => v16_A0_pipe, v17_A2_pipe => v17_A2_pipe, v18_pipe => v18_pipe, v10_m_4_out => v10_m_4);
  u_mux_bb6 : entity work.median3_dp_mux_bb6
    port map (v10_m_4 => v10_m_4, v14_A1_pipe => v14_A1_pipe, v15_pipe => v15_pipe, v11_m_5_out => v11_m_5);
  u_mux_bb3 : entity work.median3_dp_mux_bb3
    port map (v7_m_10 => v7_m_10, v11_m_5 => v11_m_5, v13_pipe => v13_pipe, v12_m_11_out => v12_m_11);
  u_node11 : entity work.median3_dp_node11
    port map ();
  u_pipe_bb3 : entity work.median3_dp_pipe_bb3
    port map (v3_t => v3_t, v13_pipe_out => v13_pipe);
  u_pipe_bb6 : entity work.median3_dp_pipe_bb6
    port map (v1_A1 => A1, v8_t => v8_t, v14_A1_pipe_out => v14_A1_pipe, v15_pipe_out => v15_pipe);
  u_pipe_bb9 : entity work.median3_dp_pipe_bb9
    port map (v0_A0 => A0, v2_A2 => A2, v9_t => v9_t, v16_A0_pipe_out => v16_A0_pipe, v17_A2_pipe_out => v17_A2_pipe, v18_pipe_out => v18_pipe);
  u_pipe_bb12 : entity work.median3_dp_pipe_bb12
    port map (v0_A0 => A0, v4_t => v4_t, v19_A0_pipe_out => v19_A0_pipe, v20_pipe_out => v20_pipe);
  u_pipe_bb15 : entity work.median3_dp_pipe_bb15
    port map (v1_A1 => A1, v2_A2 => A2, v5_t => v5_t, v21_A1_pipe_out => v21_A1_pipe, v22_A2_pipe_out => v22_A2_pipe, v23_pipe_out => v23_pipe);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
      end if;
    end if;
  end process;
  M_o0 <= resize(v12_m_11, 12);
end architecture rtl;
